package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/trace"
)

// The study workload is a closed loop with one in-process caller: every
// (input, app, system, variant) cell below, interleaved round-robin, after a
// warm-up pass. Inputs are sized so no cell is sub-millisecond and none takes
// more than about a tenth of a pass on a 2-core host.
func studyDefs(seed uint64) []inputDef {
	return []inputDef{
		roadDef(fmt.Sprintf("study-road-%d", seed), 40, 4, splitmix64(seed^0x1)),
		rmatDef(fmt.Sprintf("study-rmat-%d", seed), 14, 16, splitmix64(seed^0x2)),
		webDef(fmt.Sprintf("study-web-%d", seed), 3000, 60, 12, splitmix64(seed^0x3)),
	}
}

// studyApps picks the apps each archetype exists for: rounds-bound
// traversals on the road grid, everything but ktruss on the skewed RMAT
// graph (ktruss there would take most of a pass), and the triangle apps on
// the dense crawl (the other apps would be sub-millisecond on it).
var studyApps = map[string][]core.App{
	"road": {core.BFS, core.CC, core.PR, core.SSSP},
	"rmat": {core.BFS, core.CC, core.PR, core.SSSP, core.TC},
	"web":  {core.TC, core.KTruss},
}

// cell is one measured combination.
type cell struct {
	in  *prepared
	app core.App
	sys core.System
	v   core.Variant
}

// system is the end-to-end metric family the cell belongs to.
func (c cell) system() string {
	switch {
	case c.v == core.VFused:
		return "gb_fused"
	case c.v == core.VAdaptive:
		return "gb_adaptive"
	}
	return strings.ToLower(c.sys.String())
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s", c.in.def.archetype, c.app, c.system())
}

func (c cell) spec(threads int, tr *trace.Trace) core.RunSpec {
	return core.RunSpec{
		App: c.app, System: c.sys, Variant: c.v, Input: c.in.in, Scale: scale,
		Threads: threads, Timeout: time.Minute, Trace: tr,
	}
}

// studyCells lists cells with the systems of one (input, app) adjacent, so
// a round-robin pass alternates systems every cell.
func studyCells(ins []prepared) []cell {
	var cells []cell
	for i := range ins {
		in := &ins[i]
		for _, app := range studyApps[in.def.archetype] {
			for _, sys := range core.Systems() {
				cells = append(cells, cell{in, app, sys, core.VDefault})
			}
			for _, v := range []core.Variant{core.VFused, core.VAdaptive} {
				if core.ValidVariant(app, core.GB, v) {
					cells = append(cells, cell{in, app, core.GB, v})
				}
			}
		}
	}
	return cells
}

// verifier checks each run's digest: against core.ReferenceCheck where it
// has a digest-exact serial reference, and against a from-scratch GB
// gb-res run on the same input for the residual pagerank formulation
// (Lonestar, fused, adaptive and incremental pr), which the serial
// power-iteration reference does not match. References are computed once
// per (input, app, formulation).
type verifier struct {
	rep     *report
	threads int
	refs    map[string]refDigest
}

type refDigest struct {
	digest uint64
	ok     bool
}

func newVerifier(rep *report, threads int) *verifier {
	return &verifier{rep: rep, threads: threads, refs: map[string]refDigest{}}
}

// residualPR reports whether the spec computes the residual pagerank.
func residualPR(spec core.RunSpec) bool {
	if spec.App != core.PR {
		return false
	}
	switch spec.Variant {
	case core.VGBRes, core.VFused, core.VAdaptive, core.VIncremental:
		return true
	}
	return spec.System == core.LS
}

// reference returns the digest the spec's answer must have, if any.
func (v *verifier) reference(spec core.RunSpec) refDigest {
	key := fmt.Sprintf("%s/%s/%v", spec.Input.Name, spec.App, residualPR(spec))
	r, ok := v.refs[key]
	if ok {
		return r
	}
	if residualPR(spec) {
		res := core.RunCtx(context.Background(), core.RunSpec{
			App: core.PR, System: core.GB, Variant: core.VGBRes,
			Input: spec.Input, Scale: spec.Scale, Threads: v.threads, Timeout: time.Minute,
		})
		r = refDigest{res.Check, res.Outcome == core.OK}
	} else {
		r.digest, r.ok = core.ReferenceCheck(spec)
	}
	v.refs[key] = r
	return r
}

// check counts one run: failed unless OK, a mismatch when a reference
// exists and differs. ok is true only for a run that counts as passed;
// checked is false for a passed run that had no reference to check against.
func (v *verifier) check(label string, res core.Result) (ok, checked bool) {
	if res.Outcome != core.OK {
		v.rep.fail("%s: outcome %v: %v", label, res.Outcome, res.Err)
		return false, true
	}
	ref := v.reference(res.Spec)
	if ref.ok && ref.digest != res.Check {
		v.rep.mismatch("%s: digest %x, reference %x", label, res.Check, ref.digest)
		return false, true
	}
	v.rep.op(true)
	return true, ref.ok
}

// studySetup builds and prepares the inputs setupRounds times (keeping the
// last build) and reports the median set-up time.
func studySetup(rep *report, cfg config) (ins []prepared, setupS float64, genS, prepMs []float64) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		var g time.Duration
		ins, g = generate(studyDefs(cfg.seed))
		for j := range ins {
			t1 := time.Now()
			ins[j].p = core.Prepare(ins[j].in, scale)
			prepMs = append(prepMs, ms(time.Since(t1)))
		}
		setups = append(setups, time.Since(t0).Seconds())
		genS = append(genS, g.Seconds())
	}
	checkShapes(rep, ins)
	return ins, median(setups), genS, prepMs
}

func runStudy(cfg config) (*report, error) {
	rep := newReport()
	ins, setupS, genS, prepMs := studySetup(rep, cfg)
	cells := studyCells(ins)
	ver := newVerifier(rep, cfg.nproc)
	ctx := context.Background()
	unchecked := map[string]bool{}
	// run returns the cell's result and whether it passed; a failed run
	// never enters a timing sample.
	run := func(c cell, tr *trace.Trace) (core.Result, bool) {
		res := core.RunCtx(ctx, c.spec(cfg.nproc, tr))
		ok, checked := ver.check(c.String(), res)
		if !checked {
			unchecked[c.String()] = true
		}
		return res, ok
	}
	for _, c := range cells { // warm-up pass; digests checked like any other
		run(c, nil)
	}
	for _, c := range cells {
		if unchecked[c.String()] {
			note("unchecked %s (no digest-exact reference)", c)
		}
	}
	if cfg.trace {
		studyTraced(rep, cfg, cells, run, genS, prepMs)
		return rep, nil
	}

	// Round-robin passes; each pass starts one cell later than the last, so
	// a slow phase of the host spreads over every system.
	samples := make([][]float64, len(cells))
	var passSec []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for (len(passSec) < 2 || time.Now().Before(deadline)) && rep.correct() {
		t0 := time.Now()
		for k := range cells {
			i := (len(passSec) + k) % len(cells)
			if res, ok := run(cells[i], nil); ok {
				samples[i] = append(samples[i], ms(res.Elapsed))
			}
		}
		passSec = append(passSec, time.Since(t0).Seconds())
	}

	medians := make([]float64, len(cells))
	bySystem := map[string][]float64{}
	fastest, slowest := 0, 0
	for i, c := range cells {
		medians[i] = median(samples[i])
		bySystem[c.system()] = append(bySystem[c.system()], medians[i])
		if medians[i] < medians[fastest] {
			fastest = i
		}
		if medians[i] > medians[slowest] {
			slowest = i
		}
	}
	note("study: %d passes of %d cells (one sample per cell per pass), median pass %.3f s", len(passSec), len(cells), median(passSec))
	for _, sys := range []string{"ss", "gb", "gb_fused", "gb_adaptive", "ls"} {
		note("study %s_ms %.4f ms (geomean over %d cells of per-cell median Result.Elapsed)", sys, geomean(bySystem[sys]), len(bySystem[sys]))
	}
	note("study fastest cell %s %.4f ms, slowest cell %s %.4f ms (median Result.Elapsed; median pass %.1f ms)",
		cells[fastest], medians[fastest], cells[slowest], medians[slowest], 1000*median(passSec))
	printGap(cells, medians)

	rep.set("setup_s", setupS, "s")
	rep.set("peak_rss_mb", peakRSSMB("self"), "MB")
	rep.set("p50_ms", geomean(medians), "ms")
	if len(passSec) > 0 {
		rep.set("ops_per_s", float64(len(cells))/median(passSec), "1/s")
	}
	return rep, nil
}

// printGap prints the derived LS/GB gap per app (GB median over LS median,
// geomean over inputs) beside the paper's ~3.5x. Informational, not gated.
func printGap(cells []cell, medians []float64) {
	type key struct {
		in  string
		app core.App
	}
	gb, ls := map[key]float64{}, map[key]float64{}
	for i, c := range cells {
		k := key{c.in.def.name, c.app}
		switch c.system() {
		case "gb":
			gb[k] = medians[i]
		case "ls":
			ls[k] = medians[i]
		}
	}
	ratios := map[core.App][]float64{}
	for k, g := range gb {
		if l, ok := ls[k]; ok && l > 0 {
			ratios[k.app] = append(ratios[k.app], g/l)
		}
	}
	apps := make([]core.App, 0, len(ratios))
	for a := range ratios {
		apps = append(apps, a)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	var all []float64
	for _, a := range apps {
		all = append(all, ratios[a]...)
		note("gap %-6s GB/LS %.2fx over %d inputs (paper: ~3.5x LAGraph vs Lonestar)", a, geomean(ratios[a]), len(ratios[a]))
	}
	note("gap all    GB/LS %.2fx (paper: ~3.5x)", geomean(all))
}

// studyTraced runs untraced and traced passes alternately (three each) and
// reports the per-layer metrics of the median traced pass, checking on
// every cell that the exclusive layer times tile the run's wall time.
func studyTraced(rep *report, cfg config, cells []cell, run func(cell, *trace.Trace) (core.Result, bool), genS, prepMs []float64) {
	setLayerDefaults(rep)
	const passes = 3
	var untraced, traced []float64
	var perPass []*tracedRuns
	var steals, relax, alloc []float64
	worstTile := 0.0
	for p := 0; p < passes; p++ {
		var u, t time.Duration
		var rx float64
		for _, c := range cells {
			res, ok := run(c, nil)
			if !ok {
				continue
			}
			u += res.Elapsed
			if c.app == core.SSSP && c.sys == core.LS {
				rx += float64(res.Rounds)
			}
		}
		pass := &tracedRuns{rep: rep}
		for _, c := range cells {
			tr := newRunTrace()
			res, ok := run(c, tr)
			if !ok {
				continue
			}
			t += res.Elapsed
			pass.add(c.String(), tr, res.Elapsed)
			alloc = append(alloc, float64(res.AllocBytes)/(1<<20))
			if c.app == core.SSSP && c.sys == core.LS {
				rx += float64(res.Rounds)
			}
		}
		untraced = append(untraced, ms(u))
		traced = append(traced, ms(t))
		perPass = append(perPass, pass)
		steals = append(steals, float64(pass.agg.steals))
		relax = append(relax, rx/2)
		worstTile = math.Max(worstTile, pass.worstErr)
	}
	sort.Slice(perPass, func(i, j int) bool { return perPass[i].agg.wall < perPass[j].agg.wall })
	perPass[len(perPass)/2].report()
	setLayer(rep, "trace.tile_err_pct", worstTile*100)
	setLayer(rep, "galois.steals", median(steals))
	setLayer(rep, "galois.steals_iqr", iqr(steals))
	setLayer(rep, "lonestar.relaxations", median(relax))
	setLayer(rep, "lonestar.relaxations_iqr", iqr(relax))
	setLayer(rep, "gen.build_s", median(genS))
	setLayer(rep, "core.prepare_ms", median(prepMs))
	setLayer(rep, "core.alloc_mb", median(alloc))
	setLayer(rep, "trace.overhead_pct", (median(traced)/median(untraced)-1)*100)
	note("traced: %d passes; untraced pass %.1f ms, traced pass %.1f ms (medians)", passes, median(untraced), median(traced))
}
