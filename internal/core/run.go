package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"graphstudy/internal/adapt"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/lonestar"
	"graphstudy/internal/trace"
)

// RunSpec describes one measurement: a workload on a system on an input.
type RunSpec struct {
	App     App
	System  System
	Variant Variant
	Input   *gen.Input
	Scale   gen.Scale
	// Threads is the worker count (<= 0 uses the configured default).
	Threads int
	// Timeout bounds the run; zero means unbounded. The study used 2 hours
	// at full scale; the harness defaults to a scaled-down bound.
	Timeout time.Duration
	// Trace, when non-nil, is installed for the duration of the timed
	// region: every kernel, parallel region, and algorithm round records a
	// span into it, and Result.Trace carries the aggregated summary.
	// Installation is global (like perfmodel), so traced runs must not
	// execute concurrently with other runs.
	Trace *trace.Trace
	// Adapt overrides the adaptive variant's decision thresholds; nil uses
	// adapt.DefaultConfig(). The metamorphic equivalence suite injects
	// forced decisions through it. Ignored by every other variant.
	Adapt *adapt.Config
	// Mutation, for the incremental variant, identifies the mutation
	// lineage the input snapshot belongs to and resolves epoch-to-epoch
	// deltas; nil runs from scratch without keeping state. Ignored by every
	// other variant.
	Mutation *MutationView
}

// Result is the outcome of one run.
type Result struct {
	Spec    RunSpec
	Outcome Outcome
	Err     error
	// Elapsed is the timed region only (preprocessing excluded).
	Elapsed time.Duration
	// Value summarizes the answer for cross-system comparison (e.g. the
	// triangle count, component count, distance checksum).
	Value string
	// Check is a numeric digest of the answer; equal answers have equal
	// digests (used by the cross-system consistency tests).
	Check uint64
	// AllocBytes is the heap allocated during the timed region — the
	// harness's stand-in for Table III's max resident set size, and a
	// direct measure of the materialization the study discusses.
	AllocBytes uint64
	// Rounds reports algorithm rounds where meaningful (bfs levels, cc
	// hook/shortcut rounds, ktruss peels, pagerank iterations, matrix sssp
	// light-relax rounds). LS sssp carries its applied-relaxation count
	// here instead; tc, LS Afforest cc and a warm incremental cc report 0.
	Rounds int
	// Trace is the per-operator summary of the run when Spec.Trace was set.
	Trace *trace.Summary
}

// Run executes one measurement. Preparation (generation, symmetrization,
// matrix building) happens before the clock starts. It is a thin shim over
// RunCtx for callers that have no context of their own.
func Run(spec RunSpec) Result {
	return RunCtx(context.Background(), spec)
}

// RunCtx executes one measurement under a caller-supplied context. The
// spec's Timeout (when positive) is layered on top as a deadline, so a
// server can propagate per-request deadlines while batch callers keep the
// old Timeout semantics. Cancellation is cooperative: the round loops of
// both APIs observe a stop flag between rounds, and a canceled or expired
// context flips it, producing a TO outcome rather than an abandoned
// goroutine.
func RunCtx(ctx context.Context, spec RunSpec) Result {
	bind := lookupCell(spec.App, spec.System, spec.Variant)
	if bind == nil {
		return Result{Spec: spec, Outcome: ERR,
			Err: fmt.Errorf("core: variant %q is not valid for %v on %v", spec.Variant, spec.App, spec.System)}
	}
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}

	// bind builds every form the cell reads, ahead of the allocation
	// counters and the clock.
	body := bind(Prepare(spec.Input, spec.Scale), spec)

	var stop atomic.Bool
	if ctx.Done() != nil {
		// Synchronous pre-check: an already-expired deadline must stop the
		// run deterministically, not race with the watcher goroutine.
		if ctx.Err() != nil {
			stop.Store(true)
		} else {
			watchDone := make(chan struct{})
			defer close(watchDone)
			//lint:ignore gostmt context-cancellation watcher: one goroutine per run, joined via watchDone on every exit path
			go func() {
				select {
				case <-ctx.Done():
					stop.Store(true)
				case <-watchDone:
				}
			}()
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if spec.Trace != nil {
		trace.Install(spec.Trace)
	}
	start := time.Now()
	res, err := body(grbContext(spec.System, spec.Threads, &stop),
		lonestar.Options{Threads: spec.Threads, Stop: &stop})
	res.Elapsed = time.Since(start)
	if spec.Trace != nil {
		trace.Install(nil)
	}
	runtime.ReadMemStats(&ms1)

	res.Spec = spec
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if spec.Trace != nil {
		res.Trace = spec.Trace.Summary()
	}
	switch {
	case err == lagraph.ErrTimeout || err == lonestar.ErrTimeout:
		res.Outcome = TO
	case err != nil:
		res.Outcome = ERR
		res.Err = err
	default:
		res.Outcome = OK
	}
	return res
}

// grbContext builds the LAGraph-side context of SS or GB; LS has none.
func grbContext(sys System, threads int, stop *atomic.Bool) *grb.Context {
	var ctx *grb.Context
	switch sys {
	case SS:
		ctx = grb.NewSuiteSparseContext(threads)
	case GB:
		ctx = grb.NewGaloisBLASContext(threads)
	default:
		return nil
	}
	ctx.Stop = stop
	return ctx
}

// levelsAnswer reports bfs levels: the reachable count and the max level.
// Like the other answer helpers, on error it reports only the rounds.
func levelsAnswer(levels []uint32, rounds int, err error) (Result, error) {
	if err != nil {
		return Result{Rounds: rounds}, err
	}
	reached, maxL := 0, uint32(0)
	for _, d := range levels {
		if d != ^uint32(0) {
			reached++
			if d > maxL {
				maxL = d
			}
		}
	}
	return Result{Value: fmt.Sprintf("reached=%d maxlevel=%d", reached, maxL), Check: checksum32(levels), Rounds: rounds}, nil
}

func distsAnswer(dist []uint64, rounds int, err error) (Result, error) {
	if err != nil {
		return Result{Rounds: rounds}, err
	}
	reached := 0
	for _, d := range dist {
		if d != ^uint64(0) {
			reached++
		}
	}
	return Result{Value: fmt.Sprintf("reached=%d", reached), Check: checksum64(dist), Rounds: rounds}, nil
}

func componentsAnswer(labels []uint32, rounds int, err error) (Result, error) {
	if err != nil {
		return Result{Rounds: rounds}, err
	}
	seen := map[uint32]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return Result{Value: fmt.Sprintf("components=%d", len(seen)), Check: componentCheck(labels), Rounds: rounds}, nil
}

func ranksAnswer(r []float64, rounds int, err error) (Result, error) {
	if err != nil {
		return Result{Rounds: rounds}, err
	}
	var sum, max float64
	for _, v := range r {
		sum += v
		if v > max {
			max = v
		}
	}
	return Result{Value: fmt.Sprintf("sum=%.6f max=%.6f", sum, max), Check: rankCheck(r), Rounds: rounds}, nil
}

// checksum32 hashes a level array (FNV-style) so equal answers compare equal.
func checksum32(a []uint32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range a {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func checksum64(a []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range a {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// componentCheck digests a partition canonically (label = min member).
func componentCheck(labels []uint32) uint64 {
	canon := map[uint32]uint32{}
	for i, l := range labels {
		if m, ok := canon[l]; !ok || uint32(i) < m {
			canon[l] = uint32(i)
		}
	}
	out := make([]uint32, len(labels))
	for i, l := range labels {
		out[i] = canon[l]
	}
	return checksum32(out)
}

// rankCheck digests ranks at reduced precision so schedule-dependent float
// rounding does not break cross-system equality. Quantization rounds to
// nearest rather than truncating: analytically exact ranks (0.125 on a
// complete graph) sit precisely on a truncation boundary, and summation
// order decides which side each system lands on.
func rankCheck(r []float64) uint64 {
	out := make([]uint64, len(r))
	for i, v := range r {
		out[i] = uint64(math.Round(v * 1e7))
	}
	return checksum64(out)
}
