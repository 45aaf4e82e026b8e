package lagraph

import (
	"testing"

	"graphstudy/internal/adapt"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
	"graphstudy/internal/verify"
)

func TestAdaptiveBFSActuallyPulls(t *testing.T) {
	// From a power-law hub the frontier floods immediately: the free-running
	// engine must pull at least one round.
	in, _ := gen.ByName("rmat22")
	g := in.Build(gen.ScaleTest)
	A := grb.BoolMatrixFromGraph(g)
	tr := trace.New()
	trace.Install(tr)
	_, _, err := AdaptiveBFS(grb.NewGaloisBLASContext(4), A, int(g.MaxOutDegreeVertex()), adapt.DefaultConfig())
	trace.Install(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Summary().Find(trace.CatAdapt, "adapt.direction.pull"); st == nil || st.Count == 0 {
		t.Fatalf("expected a pull round on a flooding frontier: %+v", st)
	}
}

func TestSSSPBellmanFordMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src := g.MaxOutDegreeVertex()
		want := verify.Dijkstra(g, src)
		A := grb.WeightMatrixFromGraph(g)
		res, err := SSSPBellmanFord(grb.NewGaloisBLASContext(4), A, int(src))
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		got := Distances(res.Dist)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dist[%d] = %d, want %d", gname, i, got[i], want[i])
			}
		}
	}
}

func TestBellmanFordNeedsMoreRoundsThanDeltaStepping(t *testing.T) {
	// On the road network, Bellman-Ford's rounds ≈ hop diameter of the
	// shortest-path tree; delta-stepping's bucketing cuts the full-matrix
	// products it needs. (Both are bulk-synchronous; this is the classic
	// reason LAGraph ships delta-stepping at all.)
	in, _ := gen.ByName("road-USA-W")
	g := in.Build(gen.ScaleTest)
	src := in.Source(g)
	A := grb.WeightMatrixFromGraph(g)
	ctx := grb.NewGaloisBLASContext(4)
	bf, err := SSSPBellmanFord(ctx, A, int(src))
	if err != nil {
		t.Fatal(err)
	}
	if bf.Rounds < 10 {
		t.Fatalf("bellman-ford rounds suspiciously low: %d", bf.Rounds)
	}
}
