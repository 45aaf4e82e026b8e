package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// diamond returns the 4-node diamond 0->1, 0->2, 1->3, 2->3.
func diamond() *Graph {
	return FromEdges(4, [][2]uint32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestBuilderBasic(t *testing.T) {
	g := diamond()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes %d edges, want 4/4", g.NumNodes, g.NumEdges())
	}
	if got := g.OutEdges(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("OutEdges(0) = %v", got)
	}
	if g.OutDegree(3) != 0 {
		t.Fatalf("OutDegree(3) = %d, want 0", g.OutDegree(3))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2, false).AddEdge(0, 2, 0)
}

func TestBuildInTranspose(t *testing.T) {
	g := diamond()
	g.BuildIn()
	if got := g.InEdges(3); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("InEdges(3) = %v", got)
	}
	if g.InDegree(0) != 0 {
		t.Fatalf("InDegree(0) = %d", g.InDegree(0))
	}
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.OutEdges(3); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("transpose OutEdges(3) = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	// (G^T)^T must equal G as an edge set.
	f := func(edges [][2]uint32) bool {
		g := clampEdges(32, edges)
		tt := g.Transpose().Transpose()
		return reflect.DeepEqual(g.SortedEdgeList(), tt.SortedEdgeList())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// clampEdges maps arbitrary fuzz input to a valid n-node dedup graph.
func clampEdges(n uint32, edges [][2]uint32) *Graph {
	b := NewBuilder(n, false)
	for _, e := range edges {
		b.AddEdge(e[0]%n, e[1]%n, 0)
	}
	return b.BuildDedup(KeepFirst)
}

func TestDedupPolicies(t *testing.T) {
	edges := [][3]uint32{{0, 1, 9}, {0, 1, 3}, {0, 1, 5}}
	b := NewBuilder(2, true)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], e[2])
	}
	g := b.BuildDedup(MinWeight)
	if g.NumEdges() != 1 || g.OutWeights(0)[0] != 3 {
		t.Fatalf("MinWeight dedup: edges=%d w=%v", g.NumEdges(), g.Wt)
	}
	b2 := NewBuilder(2, true)
	for _, e := range edges {
		b2.AddEdge(e[0], e[1], e[2])
	}
	g2 := b2.BuildDedup(SumWeight)
	if g2.OutWeights(0)[0] != 17 {
		t.Fatalf("SumWeight dedup: w=%v", g2.Wt)
	}
	b3 := NewBuilder(2, true)
	for _, e := range edges {
		b3.AddEdge(e[0], e[1], e[2])
	}
	g3 := b3.BuildDedup(KeepFirst)
	if g3.OutWeights(0)[0] != 9 {
		t.Fatalf("KeepFirst dedup: w=%v", g3.Wt)
	}
}

// TestBuildDedupKeepFirstLongRow: a row with more than a dozen entries,
// every destination twice with different weights, keeps each edge's first
// weight. Rows that long used to go through an unstable sort, which could
// put a later duplicate first.
func TestBuildDedupKeepFirstLongRow(t *testing.T) {
	const dsts = 40
	b := NewBuilder(dsts+1, true)
	for pass := uint32(0); pass < 2; pass++ {
		for i := uint32(0); i < dsts; i++ {
			v := (i*17 + 3) % dsts // scrambled destination order
			b.AddEdge(0, v+1, 100*pass+v)
		}
	}
	g := b.BuildDedup(KeepFirst)
	if g.OutDegree(0) != dsts {
		t.Fatalf("row 0 has %d edges after dedup, want %d", g.OutDegree(0), dsts)
	}
	for e, v := range g.OutEdges(0) {
		if w := g.OutWeights(0)[e]; w != v-1 {
			t.Fatalf("edge (0,%d) kept weight %d, want the first occurrence's %d", v, w, v-1)
		}
	}
}

// TestBuildSortedIsStableRowSort checks the counting-sort build against
// Build followed by a stable sort of every row, on random multigraphs.
func TestBuildSortedIsStableRowSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := uint32(1 + r.Intn(30))
		weighted := trial%2 == 0
		b := NewBuilder(n, weighted)
		for i, m := 0, r.Intn(400); i < m; i++ {
			b.AddEdge(uint32(r.Intn(int(n))), uint32(r.Intn(int(n))), uint32(r.Intn(5)))
		}
		want := b.Build()
		for u := uint32(0); u < n; u++ {
			lo, hi := want.RowPtr[u], want.RowPtr[u+1]
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = int(lo) + i
			}
			adj := want.ColIdx
			sort.SliceStable(idx, func(i, j int) bool { return adj[idx[i]] < adj[idx[j]] })
			var col, wt []uint32
			for _, e := range idx {
				col = append(col, adj[e])
				if weighted {
					wt = append(wt, want.Wt[e])
				}
			}
			copy(want.ColIdx[lo:hi], col)
			if weighted {
				copy(want.Wt[lo:hi], wt)
			}
		}
		if got := b.BuildSorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: BuildSorted differs from a stable row sort", trial)
		}
	}
}

func TestSortAdjacencyWeighted(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 3, 30)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 20)
	g := b.Build()
	g.SortAdjacency()
	if !reflect.DeepEqual(g.OutEdges(0), []uint32{1, 2, 3}) {
		t.Fatalf("adj = %v", g.OutEdges(0))
	}
	if !reflect.DeepEqual(g.OutWeights(0), []uint32{10, 20, 30}) {
		t.Fatalf("weights did not follow edges: %v", g.OutWeights(0))
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v uint32
		want bool
	}{{0, 1, true}, {0, 2, true}, {0, 3, false}, {1, 3, true}, {3, 0, false}}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	g := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}, {2, 2}}) // incl. self loop
	s := g.Symmetrize()
	want := [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 1}}
	if !reflect.DeepEqual(s.SortedEdgeList(), want) {
		t.Fatalf("symmetrize = %v, want %v", s.SortedEdgeList(), want)
	}
}

func TestSymmetrizeIsSymmetric(t *testing.T) {
	f := func(edges [][2]uint32) bool {
		g := clampEdges(24, edges)
		s := g.Symmetrize()
		s.SortAdjacency()
		for u := uint32(0); u < s.NumNodes; u++ {
			for _, v := range s.OutEdges(u) {
				if v == u || !s.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeOrderRelabel(t *testing.T) {
	// Node 2 has the highest out-degree, so it must get new ID 0.
	g := FromEdges(4, [][2]uint32{{2, 0}, {2, 1}, {2, 3}, {0, 1}})
	perm := g.DegreeOrder()
	if perm[2] != 0 {
		t.Fatalf("perm[2] = %d, want 0", perm[2])
	}
	r := g.Relabel(perm)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel changed edge count: %d != %d", r.NumEdges(), g.NumEdges())
	}
	if r.OutDegree(0) != 3 {
		t.Fatalf("highest-degree vertex should be node 0 after relabel, deg=%d", r.OutDegree(0))
	}
}

func TestRelabelPreservesDegreesMultiset(t *testing.T) {
	f := func(edges [][2]uint32, seed int64) bool {
		g := clampEdges(16, edges)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(int(g.NumNodes))
		p32 := make([]uint32, len(perm))
		for i, p := range perm {
			p32[i] = uint32(p)
		}
		r := g.Relabel(p32)
		for u := uint32(0); u < g.NumNodes; u++ {
			if g.OutDegree(u) != r.OutDegree(p32[u]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangularSplit(t *testing.T) {
	g := FromEdges(3, [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}})
	lo := g.LowerTriangular()
	up := g.UpperTriangular()
	if lo.NumEdges()+up.NumEdges() != g.NumEdges() {
		t.Fatalf("triangular split lost edges: %d + %d != %d", lo.NumEdges(), up.NumEdges(), g.NumEdges())
	}
	for u := uint32(0); u < lo.NumNodes; u++ {
		for _, v := range lo.OutEdges(u) {
			if v >= u {
				t.Fatalf("lower triangular has edge (%d,%d)", u, v)
			}
		}
	}
	for u := uint32(0); u < up.NumNodes; u++ {
		for _, v := range up.OutEdges(u) {
			if v <= u {
				t.Fatalf("upper triangular has edge (%d,%d)", u, v)
			}
		}
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := FromEdges(5, [][2]uint32{{3, 0}, {3, 1}, {3, 2}, {1, 0}})
	if got := g.MaxOutDegreeVertex(); got != 3 {
		t.Fatalf("MaxOutDegreeVertex = %d, want 3", got)
	}
	if g.MaxOutDegree() != 3 {
		t.Fatalf("MaxOutDegree = %d", g.MaxOutDegree())
	}
	if g.MaxInDegree() != 2 {
		t.Fatalf("MaxInDegree = %d", g.MaxInDegree())
	}
}

func TestApproxDiameterPath(t *testing.T) {
	// A directed path 0->1->...->9 has diameter 9; double sweep over the
	// undirected closure must find it exactly.
	edges := make([][2]uint32, 0, 9)
	for i := uint32(0); i < 9; i++ {
		edges = append(edges, [2]uint32{i, i + 1})
	}
	g := FromEdges(10, edges)
	if d := g.ApproxDiameter(); d != 9 {
		t.Fatalf("ApproxDiameter = %d, want 9", d)
	}
}

func TestApproxDiameterClique(t *testing.T) {
	var edges [][2]uint32
	for i := uint32(0); i < 6; i++ {
		for j := uint32(0); j < 6; j++ {
			if i != j {
				edges = append(edges, [2]uint32{i, j})
			}
		}
	}
	g := FromEdges(6, edges)
	if d := g.ApproxDiameter(); d != 1 {
		t.Fatalf("clique diameter = %d, want 1", d)
	}
}

func TestRoundTripBinary(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1, 7)
	b.AddEdge(1, 2, 3)
	b.AddEdge(4, 0, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, g2) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", g, g2)
	}
}

func TestRoundTripBinaryProperty(t *testing.T) {
	f := func(edges [][2]uint32) bool {
		g := clampEdges(20, edges)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE--------"))); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := diamond()
	g.ColIdx[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range destination")
	}
}

func TestSizeBytes(t *testing.T) {
	g := diamond()
	want := uint64(5*8 + 4*4)
	if got := g.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond()
	s := ComputeStats("diamond", g)
	if s.NumNodes != 4 || s.NumEdges != 4 || s.MaxOutDegree != 2 || s.ApproxDiam != 2 {
		t.Fatalf("stats = %+v", s)
	}
}
