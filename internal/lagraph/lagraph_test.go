package lagraph

import (
	"errors"
	"sync/atomic"
	"testing"

	"graphstudy/internal/adapt"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
	"graphstudy/internal/verify"
)

func testContexts() map[string]*grb.Context {
	return map[string]*grb.Context{
		"SS": grb.NewSuiteSparseContext(4),
		"GB": grb.NewGaloisBLASContext(4),
	}
}

// testGraphs returns a few structurally distinct suite graphs at test scale.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, name := range []string{"road-USA-W", "rmat22", "indochina04"} {
		in, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in.Build(gen.ScaleTest)
	}
	return out
}

func TestBFSMatchesReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		A := grb.BoolMatrixFromGraph(g)
		src := g.MaxOutDegreeVertex()
		want := verify.BFSLevels(g, src)
		for cname, ctx := range testContexts() {
			dist, rounds, err := BFS(ctx, A, int(src))
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cname, err)
			}
			if rounds < 1 {
				t.Fatalf("%s/%s: rounds = %d", gname, cname, rounds)
			}
			got := BFSLevels(dist)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", gname, cname, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBFSTrivial(t *testing.T) {
	g := graph.FromEdges(3, [][2]uint32{{1, 2}})
	A := grb.BoolMatrixFromGraph(g)
	dist, _, err := BFS(grb.NewSerialContext(), A, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := BFSLevels(dist)
	if got[0] != 0 || got[1] != ^uint32(0) || got[2] != ^uint32(0) {
		t.Fatalf("isolated source: %v", got)
	}
}

// operands holds one graph in the three element types the round drivers
// take: boolean for bfs, float for pagerank, uint32 weights for sssp.
type operands struct {
	b *grb.Matrix[bool]
	f *grb.Matrix[float64]
	w *grb.Matrix[uint32]
}

// driverCase is one exported round-driver entry point.
type driverCase struct {
	name   string
	source bool // rooted at a source vertex (bfs, sssp)
	delta  bool // takes a bucket width (sssp)
	run    func(ctx *grb.Context, m operands, src int, delta uint32) error
}

// driverCases lists every exported entry point into the bfs, residual
// pagerank and delta-stepping round drivers.
func driverCases() []driverCase {
	cfg := adapt.DefaultConfig()
	opt := DefaultPageRankOptions()
	return []driverCase{
		{"BFS", true, false, func(ctx *grb.Context, m operands, src int, _ uint32) error {
			_, _, err := BFS(ctx, m.b, src)
			return err
		}},
		{"FusedBFS", true, false, func(ctx *grb.Context, m operands, src int, _ uint32) error {
			_, _, err := FusedBFS(ctx, m.b, src)
			return err
		}},
		{"AdaptiveBFS", true, false, func(ctx *grb.Context, m operands, src int, _ uint32) error {
			_, _, err := AdaptiveBFS(ctx, m.b, src, cfg)
			return err
		}},
		{"PageRankResidual", false, false, func(ctx *grb.Context, m operands, _ int, _ uint32) error {
			_, err := PageRankResidual(ctx, m.f, opt)
			return err
		}},
		{"FusedPageRank", false, false, func(ctx *grb.Context, m operands, _ int, _ uint32) error {
			_, err := FusedPageRank(ctx, m.f, opt)
			return err
		}},
		{"AdaptivePageRank", false, false, func(ctx *grb.Context, m operands, _ int, _ uint32) error {
			_, err := AdaptivePageRank(ctx, m.f, opt, cfg)
			return err
		}},
		{"PageRankResidualTraj", false, false, func(ctx *grb.Context, m operands, _ int, _ uint32) error {
			_, _, err := PageRankResidualTraj(ctx, m.f, opt)
			return err
		}},
		{"SSSP", true, true, func(ctx *grb.Context, m operands, src int, delta uint32) error {
			_, err := SSSP(ctx, m.w, src, delta)
			return err
		}},
		{"FusedSSSP", true, true, func(ctx *grb.Context, m operands, src int, delta uint32) error {
			_, err := FusedSSSP(ctx, m.w, src, delta)
			return err
		}},
		{"AdaptiveSSSP", true, true, func(ctx *grb.Context, m operands, src int, delta uint32) error {
			_, err := AdaptiveSSSP(ctx, m.w, src, delta, cfg)
			return err
		}},
	}
}

func pathOperands() operands {
	g := graph.FromWeightedEdges(3, [][3]uint32{{0, 1, 1}, {1, 2, 1}})
	return operands{grb.BoolMatrixFromGraph(g), grb.FloatMatrixFromGraph(g), grb.WeightMatrixFromGraph(g)}
}

// TestBFSErrors holds every round driver to its argument checks: a
// non-square matrix, a source outside the graph and a non-positive delta
// are errors, not panics or silent runs.
func TestBFSErrors(t *testing.T) {
	square := pathOperands()
	wide := operands{
		grb.NewMatrixFromCSR[bool](2, 3, make([]int64, 3), nil, nil),
		grb.NewMatrixFromCSR[float64](2, 3, make([]int64, 3), nil, nil),
		grb.NewMatrixFromCSR[uint32](2, 3, make([]int64, 3), nil, nil),
	}
	ctx := grb.NewSerialContext()
	for _, c := range driverCases() {
		if err := c.run(ctx, wide, 0, 4); err == nil {
			t.Errorf("%s: 2x3 matrix accepted", c.name)
		}
		if c.source {
			for _, src := range []int{-1, 3, 99} {
				if err := c.run(ctx, square, src, 4); err == nil {
					t.Errorf("%s: source %d accepted on 3 vertices", c.name, src)
				}
			}
		}
		if c.delta {
			if err := c.run(ctx, square, 0, 0); err == nil {
				t.Errorf("%s: zero delta accepted", c.name)
			}
		}
		if err := c.run(ctx, square, 0, 4); err != nil {
			t.Errorf("%s: valid arguments rejected: %v", c.name, err)
		}
	}
}

// TestBFSTimeout: every round driver checks the stop flag before its first
// round and reports ErrTimeout.
func TestBFSTimeout(t *testing.T) {
	m := pathOperands()
	ctx := grb.NewSerialContext()
	ctx.Stop = &atomic.Bool{}
	ctx.Stop.Store(true)
	for _, c := range driverCases() {
		if err := c.run(ctx, m, 0, 4); !errors.Is(err, ErrTimeout) {
			t.Errorf("%s: err = %v, want ErrTimeout", c.name, err)
		}
	}
}

func TestCCFastSVMatchesReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		sym := g.Symmetrize()
		sym.SortAdjacency()
		A := grb.MatrixFromGraph(sym, func(uint32) uint32 { return 1 })
		want := verify.Components(sym)
		for cname, ctx := range testContexts() {
			f, rounds, err := CCFastSV(ctx, A)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cname, err)
			}
			if rounds < 1 {
				t.Fatalf("%s/%s: rounds = %d", gname, cname, rounds)
			}
			if !verify.SamePartition(Labels(f), want) {
				t.Fatalf("%s/%s: partitions differ (%d vs %d comps)", gname, cname,
					verify.NumComponents(Labels(f)), verify.NumComponents(want))
			}
		}
	}
}

func TestCCFastSVDisconnected(t *testing.T) {
	g := graph.FromEdges(5, [][2]uint32{{0, 1}, {1, 0}, {2, 3}, {3, 2}})
	A := grb.MatrixFromGraph(g, func(uint32) uint32 { return 1 })
	f, _, err := CCFastSV(grb.NewSerialContext(), A)
	if err != nil {
		t.Fatal(err)
	}
	labels := Labels(f)
	if verify.NumComponents(labels) != 3 {
		t.Fatalf("components = %d, want 3 (%v)", verify.NumComponents(labels), labels)
	}
}

func TestTriangleCountVariantsMatchReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		sym := g.Symmetrize()
		sym.SortAdjacency()
		want := int64(verify.TriangleCount(sym))
		// Degree-sorted relabel for the sorted/listing variants.
		perm := sym.DegreeOrder()
		rel := sym.Relabel(perm)
		rel.SortAdjacency()
		A := grb.MatrixFromGraph(sym, func(uint32) int64 { return 1 })
		R := grb.MatrixFromGraph(rel, func(uint32) int64 { return 1 })
		for cname, ctx := range testContexts() {
			cases := []struct {
				v TCVariant
				m *grb.Matrix[int64]
			}{{TCSandiaDot, A}, {TCSorted, R}, {TCListing, R}}
			for _, c := range cases {
				got, err := TriangleCount(ctx, c.m, c.v)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", gname, cname, c.v, err)
				}
				if got != want {
					t.Fatalf("%s/%s/%v: count = %d, want %d", gname, cname, c.v, got, want)
				}
			}
		}
	}
}

func TestKTrussMatchesReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		sym := g.Symmetrize()
		sym.SortAdjacency()
		for _, k := range []uint32{3, 4} {
			want := int64(verify.KTrussEdges(sym, k))
			A := grb.MatrixFromGraph(sym, func(uint32) int64 { return 1 })
			res, err := KTruss(grb.NewGaloisBLASContext(4), A, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", gname, k, err)
			}
			if res.Edges != want {
				t.Fatalf("%s k=%d: edges = %d, want %d", gname, k, res.Edges, want)
			}
			if res.Rounds < 1 {
				t.Fatalf("%s k=%d: rounds = %d", gname, k, res.Rounds)
			}
		}
	}
}

func TestKTrussSmallK(t *testing.T) {
	g := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 0}})
	A := grb.MatrixFromGraph(g, func(uint32) int64 { return 1 })
	res, err := KTruss(grb.NewSerialContext(), A, 2)
	if err != nil || res.Edges != 2 {
		t.Fatalf("k<3 should keep all edges: %v %d", err, res.Edges)
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		A := grb.FloatMatrixFromGraph(g)
		want := verify.PageRank(g, 0.85, 10)
		for cname, ctx := range testContexts() {
			r, err := PageRank(ctx, A, DefaultPageRankOptions())
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cname, err)
			}
			if d := verify.MaxAbsDiff(Ranks(r), want); d > 1e-12 {
				t.Fatalf("%s/%s: max rank diff %g", gname, cname, d)
			}
		}
	}
}

func TestPageRankResidualConverges(t *testing.T) {
	// On a dangling-free graph, the residual formulation run long enough
	// approaches the true pagerank.
	in, _ := gen.ByName("road-USA-W") // bidirectional grid: no dangling nodes
	g := in.Build(gen.ScaleTest)
	A := grb.FloatMatrixFromGraph(g)
	// Both formulations converge geometrically (rate 0.85) to the same
	// fixpoint but along different transients, so compare at a tolerance
	// matching d^iters.
	want := verify.PageRank(g, 0.85, 120)
	r, err := PageRankResidual(grb.NewGaloisBLASContext(4), A, PageRankOptions{Damping: 0.85, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	if d := verify.MaxAbsDiff(Ranks(r), want); d > 1e-8 {
		t.Fatalf("residual pagerank diverges from reference: %g", d)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src := g.MaxOutDegreeVertex()
		want := verify.Dijkstra(g, src)
		A := grb.WeightMatrixFromGraph(g)
		for cname, ctx := range testContexts() {
			for _, delta := range []uint32{4, 1 << 13} {
				res, err := SSSP(ctx, A, int(src), delta)
				if err != nil {
					t.Fatalf("%s/%s delta=%d: %v", gname, cname, delta, err)
				}
				got := Distances(res.Dist)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s delta=%d: dist[%d] = %d, want %d", gname, cname, delta, i, got[i], want[i])
					}
				}
				if res.Rounds < 1 || res.Buckets < 1 {
					t.Fatalf("%s/%s: no rounds recorded", gname, cname)
				}
			}
		}
	}
}

func TestSSSP64BitEukarya(t *testing.T) {
	// The study's eukarya setup: big weights, delta 2^20, 64-bit distances.
	in, _ := gen.ByName("eukarya")
	g := in.Build(gen.ScaleTest)
	src := in.Source(g)
	want := verify.Dijkstra(g, src)
	A := grb.MatrixFromGraph(g, func(w uint32) uint64 { return uint64(w) })
	res, err := SSSP(grb.NewGaloisBLASContext(4), A, int(src), uint64(in.Delta()))
	if err != nil {
		t.Fatal(err)
	}
	got := Distances(res.Dist)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSSSPErrors(t *testing.T) {
	g := graph.FromWeightedEdges(3, [][3]uint32{{0, 1, 1}})
	A := grb.WeightMatrixFromGraph(g)
	ctx := grb.NewSerialContext()
	if _, err := SSSP(ctx, A, -1, uint32(4)); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := SSSP(ctx, A, 0, uint32(0)); err == nil {
		t.Fatal("zero delta accepted")
	}
}

// TestSSSPInitBytesAgreeAcrossEngines: every delta-stepping engine splits
// A into the same light and heavy matrices, so each must report the same
// bytes materialized on its init span.
func TestSSSPInitBytesAgreeAcrossEngines(t *testing.T) {
	cfg := adapt.DefaultConfig()
	engines := []struct {
		span string
		run  func(*grb.Context, *grb.Matrix[uint32], int, uint32) (SSSPResult[uint32], error)
	}{
		{"lagraph.sssp.init", SSSP[uint32]},
		{"lagraph.sssp-dag.init", FusedSSSP[uint32]},
		{"lagraph.sssp-adapt.init", func(ctx *grb.Context, A *grb.Matrix[uint32], src int, delta uint32) (SSSPResult[uint32], error) {
			return AdaptiveSSSP(ctx, A, src, delta, cfg)
		}},
	}
	for _, name := range []string{"rmat22", "road-USA-W"} {
		in, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := in.Build(gen.ScaleTest)
		A := grb.WeightMatrixFromGraph(g)
		var want int64
		for i, e := range engines {
			tr := trace.New()
			trace.Install(tr)
			_, err := e.run(grb.NewGaloisBLASContext(2), A, int(in.Source(g)), in.Delta())
			trace.Install(nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, e.span, err)
			}
			st := tr.Summary().Find(trace.CatRound, e.span)
			if st == nil || st.Bytes == 0 {
				t.Fatalf("%s: no bytes on %s: %+v", name, e.span, st)
			}
			if i == 0 {
				want = st.Bytes
			} else if st.Bytes != want {
				t.Errorf("%s: %s bytes = %d, %s bytes = %d", name, e.span, st.Bytes, engines[0].span, want)
			}
		}
	}
}

func TestSSSPRoadNeedsManyMoreRoundsThanRmat(t *testing.T) {
	// The asynchrony argument: bulk-synchronous delta-stepping needs far
	// more rounds on high-diameter road networks than on low-diameter
	// power-law graphs (study section V-B, sssp).
	road, _ := gen.ByName("road-USA-W")
	rmat, _ := gen.ByName("rmat22")
	gRoad := road.Build(gen.ScaleTest)
	gRmat := rmat.Build(gen.ScaleTest)
	ctx := grb.NewGaloisBLASContext(4)
	resRoad, err := SSSP(ctx, grb.WeightMatrixFromGraph(gRoad), int(road.Source(gRoad)), road.Delta())
	if err != nil {
		t.Fatal(err)
	}
	resRmat, err := SSSP(ctx, grb.WeightMatrixFromGraph(gRmat), int(rmat.Source(gRmat)), rmat.Delta())
	if err != nil {
		t.Fatal(err)
	}
	if resRoad.Rounds <= 2*resRmat.Rounds {
		t.Fatalf("road rounds %d not clearly above rmat rounds %d", resRoad.Rounds, resRmat.Rounds)
	}
}
