package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"graphstudy/internal/gen"
)

func TestParseSystemRoundTrip(t *testing.T) {
	for _, sys := range []System{SS, GB, LS} {
		for _, form := range []string{sys.String(), strings.ToLower(sys.String())} {
			got, err := ParseSystem(form)
			if err != nil || got != sys {
				t.Fatalf("ParseSystem(%q) = %v, %v; want %v", form, got, err, sys)
			}
		}
	}
	for _, bad := range []string{"", "S", "LSX", "galois", "suite"} {
		if got, err := ParseSystem(bad); err == nil {
			t.Fatalf("ParseSystem(%q) = %v, want error", bad, got)
		} else if !strings.Contains(err.Error(), "unknown system") {
			t.Fatalf("ParseSystem(%q) error %q should name the problem", bad, err)
		}
	}
}

func TestParseAppRoundTrip(t *testing.T) {
	for _, app := range Apps() {
		for _, form := range []string{app.String(), strings.ToUpper(app.String())} {
			got, err := ParseApp(form)
			if err != nil || got != app {
				t.Fatalf("ParseApp(%q) = %v, %v; want %v", form, got, err, app)
			}
		}
	}
	for _, bad := range []string{"", "bf", "pagerank", "triangle"} {
		if got, err := ParseApp(bad); err == nil {
			t.Fatalf("ParseApp(%q) = %v, want error", bad, got)
		}
	}
}

func TestLabelAllPairs(t *testing.T) {
	// Default variant: the lowercase system name.
	for _, sys := range []System{SS, GB, LS} {
		if got, want := Label(sys, VDefault), strings.ToLower(sys.String()); got != want {
			t.Fatalf("Label(%v, default) = %q, want %q", sys, got, want)
		}
	}
	// Named variants label as themselves regardless of system. Iterating
	// the registry (not a hand-written slice) means a newly added variant
	// can never silently skip this round-trip.
	for _, v := range Variants() {
		if got := Label(LS, v); got != string(v) {
			t.Fatalf("Label(LS, %q) = %q", v, got)
		}
	}
}

func TestParseVariantRoundTrip(t *testing.T) {
	if got, err := ParseVariant(""); err != nil || got != VDefault {
		t.Fatalf("ParseVariant(\"\") = %v, %v; want default", got, err)
	}
	for _, v := range Variants() {
		got, err := ParseVariant(string(v))
		if err != nil || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v; want %v", v, got, err, v)
		}
	}
	for _, bad := range []string{"fusedd", "gb", "ls-", "FUSED"} {
		if got, err := ParseVariant(bad); err == nil {
			t.Fatalf("ParseVariant(%q) = %v, want error", bad, got)
		} else if !strings.Contains(err.Error(), "unknown variant") {
			t.Fatalf("ParseVariant(%q) error %q should name the problem", bad, err)
		}
	}
}

// cell names one (app, system, variant) triple in tests.
type cell struct {
	app App
	sys System
	v   Variant
}

// TestValidVariantRegistry pins the full set of runnable cells: the 47
// triples of Table II and Figure 3, checked over the whole app x system x
// variant grid, plus a system out of range.
func TestValidVariantRegistry(t *testing.T) {
	valid := []cell{
		{BFS, SS, VDefault}, {BFS, GB, VDefault}, {BFS, LS, VDefault},
		{BFS, SS, VFused}, {BFS, GB, VFused}, {BFS, SS, VAdaptive}, {BFS, GB, VAdaptive},
		{BFS, SS, VIncremental}, {BFS, GB, VIncremental},

		{CC, SS, VDefault}, {CC, GB, VDefault}, {CC, LS, VDefault}, {CC, LS, VLSSV},
		{CC, SS, VAdaptive}, {CC, GB, VAdaptive}, {CC, SS, VIncremental}, {CC, GB, VIncremental},

		{KTruss, SS, VDefault}, {KTruss, GB, VDefault}, {KTruss, LS, VDefault},

		{PR, SS, VDefault}, {PR, GB, VDefault}, {PR, LS, VDefault}, {PR, LS, VLSSoA},
		{PR, SS, VGBRes}, {PR, GB, VGBRes}, {PR, SS, VFused}, {PR, GB, VFused},
		{PR, SS, VAdaptive}, {PR, GB, VAdaptive}, {PR, SS, VIncremental}, {PR, GB, VIncremental},

		{SSSP, SS, VDefault}, {SSSP, GB, VDefault}, {SSSP, LS, VDefault}, {SSSP, LS, VLSNoTile},
		{SSSP, SS, VFused}, {SSSP, GB, VFused}, {SSSP, SS, VAdaptive}, {SSSP, GB, VAdaptive},

		{TC, SS, VDefault}, {TC, GB, VDefault}, {TC, LS, VDefault},
		{TC, SS, VGBSort}, {TC, GB, VGBSort}, {TC, SS, VGBLL}, {TC, GB, VGBLL},
	}
	want := map[cell]bool{}
	for _, c := range valid {
		want[c] = true
	}
	if len(want) != 47 {
		t.Fatalf("%d distinct valid cells listed, want 47", len(want))
	}
	for _, app := range Apps() {
		for _, sys := range Systems() {
			for _, v := range append([]Variant{VDefault}, Variants()...) {
				if got := ValidVariant(app, sys, v); got != want[cell{app, sys, v}] {
					t.Errorf("ValidVariant(%v, %v, %q) = %v, want %v", app, sys, v, got, !got)
				}
			}
		}
	}
	// 9 Lonestar rows and 19 matrix rows, each of those shared by SS and GB.
	if len(cells) != 28 {
		t.Errorf("%d rows in the cell table, want 28", len(cells))
	}
	if ValidVariant(BFS, System(7), VDefault) {
		t.Error("ValidVariant(bfs, System(7), default) = true")
	}
}

// TestRunRejectsInvalidCells: a cell with no row in the table is an ERR
// naming the cell, never another cell's code.
func TestRunRejectsInvalidCells(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cell
		msg string
	}{
		{cell{KTruss, GB, VFused}, `core: variant "fused" is not valid for ktruss on GB`},
		{cell{BFS, LS, VAdaptive}, `core: variant "adaptive" is not valid for bfs on LS`},
		{cell{TC, SS, VIncremental}, `core: variant "incremental" is not valid for tc on SS`},
		{cell{CC, GB, VGBSort}, `core: variant "gb-sort" is not valid for cc on GB`},
		{cell{SSSP, LS, VGBRes}, `core: variant "gb-res" is not valid for sssp on LS`},
		{cell{BFS, System(7), VDefault}, `core: variant "" is not valid for bfs on System(7)`},
	} {
		res := Run(RunSpec{App: c.app, System: c.sys, Variant: c.v, Input: in, Scale: gen.ScaleTest, Threads: 2})
		if res.Outcome != ERR || res.Err == nil || res.Err.Error() != c.msg {
			t.Errorf("%v/%v/%q: outcome %v, err %v; want ERR %q", c.app, c.sys, c.v, res.Outcome, res.Err, c.msg)
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	in, err := gen.ByName("road-USA")
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{App: SSSP, System: GB, Input: in, Scale: gen.ScaleTest, Threads: 2}

	// An already-canceled context stops the run before the first round.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r := RunCtx(ctx, spec); r.Outcome != TO {
		t.Fatalf("canceled ctx: outcome %v, want TO", r.Outcome)
	}

	// A context deadline works like the spec timeout.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	if r := RunCtx(ctx2, spec); r.Outcome != TO {
		t.Fatalf("expired ctx: outcome %v, want TO", r.Outcome)
	}

	// Background context and no timeout still completes.
	if r := RunCtx(context.Background(), spec); r.Outcome != OK {
		t.Fatalf("unbounded RunCtx: outcome %v err %v", r.Outcome, r.Err)
	}

	// Run is a shim over RunCtx: same digest.
	if a, b := Run(spec), RunCtx(context.Background(), spec); a.Check != b.Check {
		t.Fatalf("Run and RunCtx disagree: %x vs %x", a.Check, b.Check)
	}
}
