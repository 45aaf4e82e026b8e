package core

import (
	"sync"
	"testing"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

// TestDropPreparedFreesBothCaches is the regression test for the Prepare
// leak: dropping a prepared input must remove both the prepared matrix forms
// and the gen build memo that pins the base graph, otherwise "eviction"
// frees no memory at all.
func TestDropPreparedFreesBothCaches(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	// Other tests in this package may already have prepared rmat22@test;
	// drop it first so the deltas below are deterministic.
	DropPrepared(in.Name, gen.ScaleTest)
	basePrep, baseGen := PreparedCount(), gen.CachedCount()

	p := Prepare(in, gen.ScaleTest)
	if p == nil || p.G == nil {
		t.Fatal("Prepare returned nil")
	}
	if got := PreparedCount(); got != basePrep+1 {
		t.Fatalf("PreparedCount after Prepare = %d, want %d", got, basePrep+1)
	}
	if got := gen.CachedCount(); got != baseGen+1 {
		t.Fatalf("gen.CachedCount after Prepare = %d, want %d", got, baseGen+1)
	}

	DropPrepared(in.Name, gen.ScaleTest)
	if got := PreparedCount(); got != basePrep {
		t.Fatalf("PreparedCount after DropPrepared = %d, want %d", got, basePrep)
	}
	if got := gen.CachedCount(); got != baseGen {
		t.Fatalf("gen.CachedCount after DropPrepared = %d, want %d", got, baseGen)
	}

	// A fresh Prepare after the drop must rebuild cleanly.
	p2 := Prepare(in, gen.ScaleTest)
	if p2 == nil || p2.G == nil {
		t.Fatal("Prepare after DropPrepared returned nil")
	}
	if p2.G.NumNodes != p.G.NumNodes || p2.G.NumEdges() != p.G.NumEdges() {
		t.Fatalf("rebuilt graph differs: %d/%d nodes, %d/%d edges",
			p2.G.NumNodes, p.G.NumNodes, p2.G.NumEdges(), p.G.NumEdges())
	}
	DropPrepared(in.Name, gen.ScaleTest)
}

// TestFormsBuiltBeforeClock walks every valid (app, system, variant) cell
// and checks that a run builds no Prepared form inside its timed region:
// starting from a fresh Prepared, a run must end with exactly the forms
// requireForms builds before the clock starts. A form dispatch reads but
// requireForms misses would be built on first use mid-run and show up as
// an extra build. Incremental cells run twice on one lineage, so the warm
// path's operands are checked as well as the from-scratch ones.
func TestFormsBuiltBeforeClock(t *testing.T) {
	const lineage = "forms-before-clock"
	defer ResetIncremental(lineage)
	// eukarya is the one input whose sssp reads the 64-bit weight matrix.
	for _, name := range []string{"rmat22", "eukarya"} {
		in, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() *Prepared {
			DropPrepared(name, gen.ScaleTest)
			return Prepare(in, gen.ScaleTest)
		}
		for _, app := range Apps() {
			for _, sys := range Systems() {
				for _, v := range append([]Variant{VDefault}, Variants()...) {
					if !ValidVariant(app, sys, v) {
						continue
					}
					spec := RunSpec{App: app, System: sys, Variant: v, Input: in, Scale: gen.ScaleTest, Threads: 2}
					p := fresh()
					p.requireForms(spec)
					want := p.builds.Load()

					epochs := []uint64{0}
					if v == VIncremental {
						epochs = []uint64{0, 1} // cold, then warm on an empty delta
					}
					for _, e := range epochs {
						if v == VIncremental {
							spec.Mutation = &MutationView{Base: lineage, Epoch: e,
								Deltas: func(uint64, uint64) ([]graph.Edge, []graph.Edge, bool) { return nil, nil, true }}
						}
						fresh()
						res := Run(spec)
						if res.Outcome != OK {
							t.Fatalf("%s %v/%v/%q: outcome %v (%v)", name, app, sys, v, res.Outcome, res.Err)
						}
						if got := Prepare(in, gen.ScaleTest).builds.Load(); got != want {
							t.Errorf("%s %v/%v/%q epoch %d: %d forms built by the run, %d before the clock",
								name, app, sys, v, e, got, want)
						}
					}
					ResetIncremental(lineage)
				}
			}
		}
		DropPrepared(name, gen.ScaleTest)
	}
}

// TestRequireFormsBuildsOnlyWhatIsRead pins how many forms a few cells
// build, so a run never pays for forms it does not read.
func TestRequireFormsBuildsOnlyWhatIsRead(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	defer DropPrepared(in.Name, gen.ScaleTest)
	cases := []struct {
		app  App
		sys  System
		v    Variant
		want int
	}{
		{BFS, LS, VDefault, 0},     // the base graph only
		{PR, LS, VLSSoA, 0},        // the base graph only
		{BFS, GB, VDefault, 1},     // ABool
		{BFS, GB, VIncremental, 2}, // AW32 (warm) + ABool (fallback)
		{CC, LS, VDefault, 1},      // Sym
		{CC, GB, VIncremental, 2},  // Sym + ASymU32
		{SSSP, SS, VFused, 1},      // AW32
		{TC, LS, VDefault, 2},      // Sym + SymSorted
		{TC, GB, VGBLL, 3},         // Sym + SymSorted + ASrtInt
		{KTruss, GB, VDefault, 2},  // Sym + ASymInt
		{PR, GB, VIncremental, 1},  // AFloat
	}
	for _, c := range cases {
		DropPrepared(in.Name, gen.ScaleTest)
		p := Prepare(in, gen.ScaleTest)
		p.requireForms(RunSpec{App: c.app, System: c.sys, Variant: c.v, Input: in, Scale: gen.ScaleTest})
		if got := int(p.builds.Load()); got != c.want {
			t.Errorf("%v/%v/%q: %d forms built, want %d", c.app, c.sys, c.v, got, c.want)
		}
	}
}

// TestFormsBuiltOnceUnderConcurrentRuns: runs sharing one fresh Prepared
// from several goroutines build each form exactly once.
func TestFormsBuiltOnceUnderConcurrentRuns(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	DropPrepared(in.Name, gen.ScaleTest)
	defer DropPrepared(in.Name, gen.ScaleTest)
	specs := []RunSpec{
		{App: BFS, System: GB}, {App: BFS, System: SS}, {App: CC, System: LS}, {App: CC, System: GB},
		{App: TC, System: LS}, {App: TC, System: GB, Variant: VGBSort}, {App: PR, System: GB},
	}
	var wg sync.WaitGroup
	for i := 0; i < 3*len(specs); i++ {
		s := specs[i%len(specs)]
		s.Input, s.Scale, s.Threads = in, gen.ScaleTest, 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := Run(s); res.Outcome != OK {
				t.Errorf("%v/%v/%q: outcome %v (%v)", s.App, s.System, s.Variant, res.Outcome, res.Err)
			}
		}()
	}
	wg.Wait()
	// ABool, Sym, ASymU32, SymSorted, ASrtInt, AFloat.
	if got := Prepare(in, gen.ScaleTest).builds.Load(); got != 6 {
		t.Fatalf("%d form builds, want each of the 6 forms read built once", got)
	}
}
