package lonestar

import (
	"fmt"

	"graphstudy/internal/galois"
	"graphstudy/internal/graph"
	"graphstudy/internal/perfmodel"
)

// TriangleCount is Lonestar's triangle listing ("ls", Table II): the graph
// is relabeled by decreasing degree by the harness beforehand; the fused
// loop walks each vertex's sorted adjacency, enforces the u > v > w
// orientation *at runtime* (the study notes ls executes more instructions
// than gb-ll for exactly this check but fewer memory accesses), and bumps a
// per-thread counter per triangle — no matrices are materialized.
//
// g must be symmetric with sorted adjacency and no self loops.
func TriangleCount(g *graph.Graph, opt Options) (int64, error) {
	if g.NumNodes == 0 {
		return 0, nil
	}
	ex := galois.NewWorkStealing(opt.threads())
	slot := perfmodel.NewSlot()
	c := perfmodel.Get()
	count := galois.NewSum()

	ex.ForRange(int(g.NumNodes), 0, func(lo, hi int, ctx *galois.Ctx) {
		var work int64
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			adjU := g.OutEdges(u)
			if c != nil {
				c.LoadRange(slot, perfmodel.KColIdx, int(g.RowPtr[u]), len(adjU), 4)
			}
			var local int64
			for _, v := range adjU {
				if c != nil {
					c.Instr(1) // runtime symmetry check (v < u)
				}
				if v >= u {
					break // runtime symmetry breaking: need v < u
				}
				adjV := g.OutEdges(v)
				if c != nil {
					c.Load(slot, perfmodel.KRowPtr, int(v), 8)
				}
				// Count common neighbors w with w < v (< u by transitivity).
				// The merge is bounded by v, so only the touched prefix of
				// each list costs memory accesses; the bound checks cost
				// instructions instead (the study's ls-vs-gb-ll trade).
				x, y := 0, 0
				for x < len(adjU) && y < len(adjV) {
					a, b := adjU[x], adjV[y]
					if a >= v || b >= v {
						break
					}
					switch {
					case a < b:
						x++
					case a > b:
						y++
					default:
						local++
						x++
						y++
					}
				}
				work += int64(x + y)
				if c != nil {
					c.LoadRange(slot, perfmodel.KColIdx, int(g.RowPtr[u]), x, 4)
					c.LoadRange(slot, perfmodel.KColIdx, int(g.RowPtr[v]), y, 4)
					c.Instr(3 * (x + y)) // compare + two bound checks per step
				}
			}
			count.Update(ctx.TID, local)
		}
		ctx.Work(work)
	})
	return count.Reduce(), nil
}

// SortByDegree returns g relabeled by decreasing degree with sorted
// adjacency — the preprocessing Lonestar's tc applies (its cost is excluded
// from the reported runtime, as in the study). The relabeled edges go
// straight into a counting-sort build, so no row is comparison-sorted.
func SortByDegree(g *graph.Graph) *graph.Graph {
	return g.RelabelSorted(g.DegreeOrder())
}

// validateSymmetricSorted is used by tests to assert tc preconditions.
func validateSymmetricSorted(g *graph.Graph) error {
	for u := uint32(0); u < g.NumNodes; u++ {
		adj := g.OutEdges(u)
		for i, v := range adj {
			if i > 0 && adj[i-1] >= v {
				return fmt.Errorf("adjacency of %d not sorted", u)
			}
			if v == u {
				return fmt.Errorf("self loop at %d", u)
			}
			if !g.HasEdge(v, u) {
				return fmt.Errorf("edge (%d,%d) not symmetric", u, v)
			}
		}
	}
	return nil
}
