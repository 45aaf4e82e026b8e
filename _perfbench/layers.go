package main

import (
	"sort"
	"strings"
	"time"

	"graphstudy/internal/trace"
)

// layerMetrics lists every per-layer metric with its unit, in the order the
// traced pass reports them. Each workload fills the layers it exercises;
// the rest read 0, which is what they measure there.
var layerMetrics = []struct{ name, unit string }{
	{"gen.build_s", "s"},
	{"core.prepare_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"grb.kernel_self_ms", "ms"},
	{"grb.kernel_calls", "count"},
	{"grb.bytes_materialized", "bytes"},
	{"lagraph.round_self_ms", "ms"},
	{"lagraph.rounds", "count"},
	{"fuse.step_self_ms", "ms"},
	{"fuse.bytes_elided", "bytes"},
	{"fuse.bails", "count"},
	{"adapt.decisions", "count"},
	{"adapt.pull_share", "ratio"},
	{"lonestar.round_self_ms", "ms"},
	{"lonestar.relaxations", "count"},
	{"lonestar.relaxations_iqr", "count"},
	{"galois.region_ms", "ms"},
	{"galois.loop_ms", "ms"},
	{"galois.items", "count"},
	{"galois.steals", "count"},
	{"galois.steals_iqr", "count"},
	{"other.self_ms", "ms"},
	{"other.outside_rounds_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.snapshot_ms", "ms"},
	{"store.compact_ms", "ms"},
	{"store.log_bytes_per_op", "bytes"},
	{"store.registry_hit_ratio", "ratio"},
	{"service.overhead_hit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.dedup_hits", "count"},
	{"service.queue_rejects", "count"},
	{"delta.fallbacks", "count"},
	{"delta.incr_run_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.tile_err_pct", "%"},
}

// setLayerDefaults gives every per-layer metric a value, 0 until a
// workload measures it.
func setLayerDefaults(rep *report) {
	for _, m := range layerMetrics {
		rep.set(m.name, 0, m.unit)
	}
}

// setLayer overwrites a per-layer metric, keeping its declared unit.
func setLayer(rep *report, name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			rep.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: undeclared layer metric " + name)
}

// interval is a half-open span [a, b) on a trace's clock.
type interval struct{ a, b time.Duration }

// union merges intervals into a sorted, disjoint list.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	out := []interval{s[0]}
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.a <= last.b {
			if iv.b > last.b {
				last.b = iv.b
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(u []interval) time.Duration {
	var d time.Duration
	for _, iv := range u {
		d += iv.b - iv.a
	}
	return d
}

// overlap is the measure of the intersection of two disjoint sorted lists.
func overlap(x, y []interval) time.Duration {
	var d time.Duration
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		a, b := max(x[i].a, y[j].a), min(x[i].b, y[j].b)
		if b > a {
			d += b - a
		}
		if x[i].b < y[j].b {
			i++
		} else {
			j++
		}
	}
	return d
}

// minus is |x \ y| for disjoint sorted lists.
func minus(x, y []interval) time.Duration { return length(x) - overlap(x, y) }

func merge(us ...[]interval) []interval {
	var all []interval
	for _, u := range us {
		all = append(all, u...)
	}
	return union(all)
}

// layers is one run's exclusive time per layer plus the counts the trace
// carries. The exclusive times are computed by interval subtraction,
// innermost layer first, so nested spans are never counted twice:
//
//	galois   = region ∪ loop spans (region first, then loop \ region)
//	grb      = kernel spans \ galois
//	fuse     = fused-step spans \ (grb ∪ galois)
//	delta    = delta spans \ all of the above;  adapt likewise
//	lagraph, lonestar = their round spans \ all inner layers
//	other    = run wall time \ every span
//
// Some runs (tc, Lonestar cc, parts of fused and adaptive sssp) issue
// kernels and galois regions outside any round span. outsideRounds is that
// inner-layer time. "Wall time minus rounds" would count it twice, once in
// its own layer and once in other; here it is counted once, in its own
// layer, and other + outsideRounds = wall − rounds.
//
// The layers therefore partition the union of the run's spans by
// construction, and their sum equals the wall time whenever every span
// lies inside the run's timed region. tileErr measures how far they miss:
// it catches spans recorded outside Result.Elapsed (work the run does not
// time, or spans leaking in from another run), not overlaps between
// layers, which the subtraction rules out.
type layers struct {
	region, loop, grb, fuse, delta, adapt  time.Duration
	lagraph, lonestar, roundOther, other   time.Duration
	outsideRounds, wall                    time.Duration
	kernelCalls, bytes, bytesElided, bails int64
	decisions, pulls, lagraphRounds        int64
	items, steals, fallbacks               int64
	dropped                                int64
}

func (l *layers) sum() time.Duration {
	return l.region + l.loop + l.grb + l.fuse + l.delta + l.adapt +
		l.lagraph + l.lonestar + l.roundOther + l.other
}

// tileErr is |sum of layers - wall| as a share of wall.
func (l *layers) tileErr() float64 {
	if l.wall <= 0 {
		return 0
	}
	d := l.sum() - l.wall
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(l.wall)
}

func (l *layers) add(o layers) {
	l.region += o.region
	l.loop += o.loop
	l.grb += o.grb
	l.fuse += o.fuse
	l.delta += o.delta
	l.adapt += o.adapt
	l.lagraph += o.lagraph
	l.lonestar += o.lonestar
	l.roundOther += o.roundOther
	l.other += o.other
	l.outsideRounds += o.outsideRounds
	l.wall += o.wall
	l.kernelCalls += o.kernelCalls
	l.bytes += o.bytes
	l.bytesElided += o.bytesElided
	l.bails += o.bails
	l.decisions += o.decisions
	l.pulls += o.pulls
	l.lagraphRounds += o.lagraphRounds
	l.items += o.items
	l.steals += o.steals
	l.fallbacks += o.fallbacks
	l.dropped += o.dropped
}

// decompose splits one traced run (wall = its Result.Elapsed) into layers.
func decompose(tr *trace.Trace, wall time.Duration) layers {
	var region, loop, kernel, fused, delta, adapt, lag, ls, rother []interval
	l := layers{wall: wall}
	for _, ev := range tr.Events() {
		iv := interval{ev.Start, ev.Start + ev.Dur}
		switch ev.Cat {
		case trace.CatRegion:
			region = append(region, iv)
		case trace.CatLoop:
			loop = append(loop, iv)
		case trace.CatKernel:
			kernel = append(kernel, iv)
		case trace.CatFused:
			fused = append(fused, iv)
		case trace.CatDelta:
			delta = append(delta, iv)
		case trace.CatAdapt:
			adapt = append(adapt, iv)
		case trace.CatRound:
			switch {
			case strings.HasPrefix(ev.Op, "lagraph."):
				lag = append(lag, iv)
				if ev.Round >= 1 {
					l.lagraphRounds++
				}
			case strings.HasPrefix(ev.Op, "lonestar."):
				ls = append(ls, iv)
			default:
				rother = append(rother, iv)
			}
		}
	}
	uRegion, uLoop := union(region), union(loop)
	uGalois := merge(uRegion, uLoop)
	l.region = length(uRegion)
	l.loop = minus(uLoop, uRegion)
	uKernel := union(kernel)
	l.grb = minus(uKernel, uGalois)
	inner := merge(uGalois, uKernel)
	uFused := union(fused)
	l.fuse = minus(uFused, inner)
	inner = merge(inner, uFused)
	uDelta := union(delta)
	l.delta = minus(uDelta, inner)
	inner = merge(inner, uDelta)
	uAdapt := union(adapt)
	l.adapt = minus(uAdapt, inner)
	inner = merge(inner, uAdapt)
	uLag, uLS, uROther := union(lag), union(ls), union(rother)
	l.outsideRounds = minus(inner, merge(uLag, uLS, uROther))
	l.lagraph = minus(uLag, inner)
	inner = merge(inner, uLag)
	l.lonestar = minus(uLS, inner)
	inner = merge(inner, uLS)
	l.roundOther = minus(uROther, inner)
	l.other = wall - length(merge(inner, uROther))
	if l.other < 0 {
		l.other = 0
	}

	sum := tr.Summary()
	l.bytes = sum.Bytes
	l.bytesElided = sum.BytesElided
	l.dropped = sum.Dropped
	for _, op := range sum.Ops {
		switch op.Cat {
		case trace.CatKernel:
			l.kernelCalls += op.Count
		case trace.CatFused:
			if strings.HasSuffix(op.Op, ".bail") {
				l.bails += op.Count
			}
		case trace.CatAdapt:
			if strings.HasPrefix(op.Op, "adapt.direction.") {
				l.decisions += op.Count
				if op.Op == "adapt.direction.pull" {
					l.pulls += op.Count
				}
			}
		case trace.CatRegion, trace.CatLoop:
			l.items += op.Items
			l.steals += op.Steals
		case trace.CatDelta:
			if op.Op == "delta.fallback" {
				l.fallbacks += op.Count
			}
		}
	}
	return l
}

// tracedRuns accumulates the layers of traced runs and checks each one: its
// trace must not have wrapped, and its exclusive layer times must tile its
// wall time within tileTolerance (or tileSlack for very short runs, where
// clock reads and the run's own bookkeeping dominate).
type tracedRuns struct {
	rep      *report
	agg      layers
	worstErr float64
}

const (
	tileTolerance = 0.05
	tileSlack     = 200 * time.Microsecond
)

func (t *tracedRuns) add(label string, tr *trace.Trace, wall time.Duration) layers {
	l := decompose(tr, wall)
	if l.dropped > 0 {
		t.rep.problem("%s: trace ring wrapped (%d spans dropped)", label, l.dropped)
	}
	if e := l.tileErr(); e > tileTolerance && time.Duration(e*float64(l.wall)) > tileSlack {
		t.rep.problem("%s: layers sum to %v, wall %v (tolerance %.0f%% or %v)", label, l.sum(), l.wall, tileTolerance*100, tileSlack)
	}
	t.worstErr = max(t.worstErr, l.tileErr())
	t.agg.add(l)
	return l
}

// report sets the layer metrics from the accumulated runs.
func (t *tracedRuns) report() {
	setTraceLayers(t.rep, t.agg)
	setLayer(t.rep, "trace.tile_err_pct", t.worstErr*100)
}

// newRunTrace returns a trace large enough that one run never wraps its
// rings (a wrapped ring would lose spans the decomposition needs).
func newRunTrace() *trace.Trace { return trace.NewWithCapacity(1 << 16) }

// setTraceLayers reports summed layer figures (already divided per pass by
// the caller where relevant).
func setTraceLayers(rep *report, l layers) {
	note("layers: wall %.3f ms, sum %.3f ms over traced runs (galois %.3f, grb %.3f, fuse %.3f, lagraph %.3f, lonestar %.3f, other %.3f)",
		ms(l.wall), ms(l.sum()), ms(l.region+l.loop), ms(l.grb), ms(l.fuse), ms(l.lagraph+l.roundOther), ms(l.lonestar), ms(l.other+l.delta+l.adapt))
	setLayer(rep, "grb.kernel_self_ms", ms(l.grb))
	setLayer(rep, "grb.kernel_calls", float64(l.kernelCalls))
	setLayer(rep, "grb.bytes_materialized", float64(l.bytes))
	setLayer(rep, "lagraph.round_self_ms", ms(l.lagraph+l.roundOther))
	setLayer(rep, "lagraph.rounds", float64(l.lagraphRounds))
	setLayer(rep, "fuse.step_self_ms", ms(l.fuse))
	setLayer(rep, "fuse.bytes_elided", float64(l.bytesElided))
	setLayer(rep, "fuse.bails", float64(l.bails))
	setLayer(rep, "adapt.decisions", float64(l.decisions))
	if l.decisions > 0 {
		setLayer(rep, "adapt.pull_share", float64(l.pulls)/float64(l.decisions))
	}
	setLayer(rep, "lonestar.round_self_ms", ms(l.lonestar))
	setLayer(rep, "galois.region_ms", ms(l.region))
	setLayer(rep, "galois.loop_ms", ms(l.loop))
	setLayer(rep, "galois.items", float64(l.items))
	setLayer(rep, "other.self_ms", ms(l.other+l.delta+l.adapt))
	setLayer(rep, "other.outside_rounds_ms", ms(l.outsideRounds))
	setLayer(rep, "delta.fallbacks", float64(l.fallbacks))
}
