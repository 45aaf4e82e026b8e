package lonestar

import (
	"reflect"
	"testing"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

// symmetrizeRef is Symmetrize as it was built before counting-sort CSR
// builds: an insertion-order Build, a comparison sort of every row, then
// a min-weight merge of parallel edges.
func symmetrizeRef(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes, g.Wt != nil)
	for u := uint32(0); u < g.NumNodes; u++ {
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			v := g.ColIdx[e]
			if v == u {
				continue
			}
			w := uint32(0)
			if g.Wt != nil {
				w = g.Wt[e]
			}
			b.AddEdge(u, v, w)
			b.AddEdge(v, u, w)
		}
	}
	s := b.Build()
	s.SortAdjacency()
	rowPtr := make([]uint64, s.NumNodes+1)
	col := s.ColIdx[:0]
	var wt []uint32
	if s.Wt != nil {
		wt = s.Wt[:0]
	}
	for u := uint32(0); u < s.NumNodes; u++ {
		lo, hi := s.RowPtr[u], s.RowPtr[u+1]
		for e := lo; e < hi; {
			v, w := s.ColIdx[e], uint32(0)
			if s.Wt != nil {
				w = s.Wt[e]
			}
			j := e + 1
			for ; j < hi && s.ColIdx[j] == v; j++ {
				if s.Wt != nil && s.Wt[j] < w {
					w = s.Wt[j]
				}
			}
			col = append(col, v)
			if wt != nil {
				wt = append(wt, w)
			}
			e = j
		}
		rowPtr[u+1] = uint64(len(col))
	}
	return &graph.Graph{NumNodes: s.NumNodes, RowPtr: rowPtr, ColIdx: col, Wt: wt}
}

// sortByDegreeRef is SortByDegree's former path: Relabel, then sort every
// row with its weights.
func sortByDegreeRef(g *graph.Graph) *graph.Graph {
	rel := g.Relabel(g.DegreeOrder())
	rel.SortAdjacency()
	return rel
}

// TestCountingSortBuildsMatchOnSuite: Symmetrize and SortByDegree, now
// built by counting sort, are byte-equal to the comparison-sort builder
// path on every suite input, so every prepared form keeps its bytes.
func TestCountingSortBuildsMatchOnSuite(t *testing.T) {
	for _, in := range gen.Suite() {
		g := in.Build(gen.ScaleTest)
		sym := g.Symmetrize()
		if want := symmetrizeRef(g); !reflect.DeepEqual(sym, want) {
			t.Fatalf("%s: Symmetrize differs from the comparison-sort path", in.Name)
		}
		if got, want := SortByDegree(sym), sortByDegreeRef(sym); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SortByDegree differs from Relabel + SortAdjacency", in.Name)
		}
		// A directed, weighted input exercises the weight-carrying relabel.
		if got, want := SortByDegree(g), sortByDegreeRef(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SortByDegree of the directed graph differs from Relabel + SortAdjacency", in.Name)
		}
	}
}
