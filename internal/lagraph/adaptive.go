package lagraph

import (
	"fmt"

	"graphstudy/internal/adapt"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// This file holds the adaptive engines of the round-based matrix kernels
// (core.VAdaptive): per-round steps for the round drivers in bfs.go /
// pr.go / sssp.go, plus FastSV's loop from cc.go, with three changes
// wired through every round —
//
//  1. the push/pull direction is decided per round by an adapt.Engine
//     from the measured frontier density and forced onto the kernel
//     (Desc.Force), instead of being left to the kernel's heuristic;
//  2. the frontier vector is promoted/demoted across representations
//     (List → Sorted → Bitmap → Dense) as its density crosses the
//     engine's bands;
//  3. per-round scratch vectors come from an adapt.Arena instead of
//     make, so steady-state rounds allocate nothing.
//
// Decisions must be invisible in the results: internal/verify's
// metamorphic suite pins every (direction, rep) cell via
// Config.ForceDirection/ForceRep and demands digests identical to the
// free-running engine across the whole corpus.

// AdaptiveBFS is LAGraph's direction-optimized BFS with the direction and
// the frontier's representation decided per round by the adapt engine:
// sparse frontiers push (masked vxm over the frontier's rows), dense ones
// pull (masked dot products through the CSC mirror). The study's
// related-work section notes GraphBLAST leans on exactly this optimization;
// in the GraphBLAS API it falls out of the mask machinery plus a
// frontier-density heuristic. Same contract as BFS: returns the level+1
// vector and the round count; pull rounds show as adapt.direction.pull
// spans.
func AdaptiveBFS(ctx *grb.Context, A *grb.Matrix[bool], src int, cfg adapt.Config) (*grb.Vector[int32], int, error) {
	return bfs(ctx, A, src, "lagraph.bfs-adapt", func() bfsStep {
		A.EnsureCSC() // pull rounds dot through the CSC mirror
		eng := adapt.NewEngine(A.NRows(), cfg)
		ar := adapt.NewArena[bool](A.NRows())
		return func(dist *grb.Vector[int32], frontier *grb.Vector[bool], level int32) (*grb.Vector[bool], error) {
			if err := grb.AssignConstant(ctx, dist, grb.StructMask(frontier), nil, level, grb.Desc{}); err != nil {
				return nil, err
			}
			if frontier.NVals() == 0 {
				return nil, nil
			}
			dec := eng.Decide(frontier.NVals())
			frontier.Convert(dec.Rep)
			// The next frontier comes from the arena instead of aliasing
			// the input (which would force the kernel to snapshot it).
			next := ar.Get(dec.Rep)
			mask := grb.ValueMask(dist).Comp()
			if err := grb.VxM(ctx, next, mask, nil, grb.LorLand(), frontier, A,
				grb.Desc{Replace: true, Force: dec.Direction.Hint()}); err != nil {
				ar.Put(next)
				return nil, err
			}
			ar.Put(frontier)
			return next, nil
		}
	})
}

// AdaptivePageRank is the residual formulation (gb-res) with the
// engine deciding the contribution product's direction per iteration
// and the contribution vector drawn from the arena. The residual is
// structurally dense, so the free-running engine settles on Pull/Dense
// immediately — the value of the adaptive port is that forced
// decisions prove the whole decision matrix equivalent on an
// order-sensitive (float) semiring. Digest-compatible with gb-res
// under core's quantized rank check.
func AdaptivePageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions, cfg adapt.Config) (*grb.Vector[float64], error) {
	return residualPageRank(ctx, A, opt, "lagraph.pr-adapt", func() prStep {
		eng := adapt.NewEngine(A.NRows(), cfg)
		ar := adapt.NewArena[float64](A.NRows())
		plus := func(a, b float64) float64 { return a + b }
		return func(pr, res, invdeg *grb.Vector[float64]) error {
			if err := grb.EWiseAdd(ctx, pr, nil, nil, plus, pr, res, grb.Desc{}); err != nil {
				return err
			}
			dec := eng.Decide(res.NVals())
			contrib := ar.Get(dec.Rep)
			defer ar.Put(contrib)
			if err := grb.EWiseMult(ctx, contrib, nil, nil, func(a, b float64) float64 { return a * b }, res, invdeg, grb.Desc{Replace: true}); err != nil {
				return err
			}
			if err := grb.VxM(ctx, res, nil, nil, grb.PlusTimes[float64](), contrib, A,
				grb.Desc{Replace: true, Force: dec.Direction.Hint()}); err != nil {
				return err
			}
			return grb.Apply(ctx, res, nil, nil, func(x float64) float64 { return opt.Damping * x }, res, grb.Desc{Replace: true})
		}
	})
}

// AdaptiveSSSP is bulk-synchronous delta-stepping (sssp.go) with the
// light-relaxation frontier adapted per round and every per-round
// scratch vector pooled. Distances are bit-identical to the static
// kernel: min-plus folds are order-insensitive, so neither direction
// nor representation can show in the result.
func AdaptiveSSSP[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T, cfg adapt.Config) (SSSPResult[T], error) {
	return deltaStepping(ctx, A, src, delta, "lagraph.sssp-adapt", func(AL, AH *grb.Matrix[T]) ssspEngine[T] {
		AL.EnsureCSC() // forced-pull light rounds need the mirror
		eng := adapt.NewEngine(A.NRows(), cfg)
		ar := adapt.NewArena[T](A.NRows())
		return ssspEngine[T]{
			scratch: ar,
			light: func(t, tmasked *grb.Vector[T], upper T) (*grb.Vector[T], error) {
				dec := eng.Decide(tmasked.NVals())
				tmasked.Convert(dec.Rep)
				// The deferred puts run after SelectVector, so improvedMask's
				// view of improved stays valid for exactly as long as it is
				// read.
				tReq := ar.Get(grb.Sorted)
				defer ar.Put(tReq)
				if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), tmasked, AL,
					grb.Desc{Replace: true, Force: dec.Direction.Hint()}); err != nil {
					return nil, err
				}
				improved := ar.Get(grb.Sorted)
				defer ar.Put(improved)
				if err := grb.EWiseMult(ctx, improved, nil, nil, lessThan[T], tReq, t, grb.Desc{Replace: true}); err != nil {
					return nil, err
				}
				improvedMask := grb.ValueMask(improved)
				if err := grb.EWiseAdd(ctx, t, nil, nil, minOf[T], t, tReq, grb.Desc{}); err != nil {
					return nil, err
				}
				next := ar.Get(grb.Sorted)
				if err := grb.SelectVector(ctx, next, improvedMask, func(v T, _, _ int) bool { return v < upper }, tReq, grb.Desc{Replace: true}); err != nil {
					ar.Put(next)
					return nil, err
				}
				return next, nil
			},
			heavy: func(t, tB *grb.Vector[T]) error {
				tReq := ar.Get(grb.Sorted)
				defer ar.Put(tReq)
				if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), tB, AH, grb.Desc{Replace: true}); err != nil {
					return err
				}
				return grb.EWiseAdd(ctx, t, nil, nil, minOf[T], t, tReq, grb.Desc{})
			},
		}
	})
}

// AdaptiveCC is FastSV (cc.go) with the grandparent product's direction
// engine-decided and the per-round shortcut vector pooled. The driving
// vector always holds all n entries, so the free-running engine settles
// on Pull/Dense; min-second folds keep forced cells bit-identical.
func AdaptiveCC(ctx *grb.Context, A *grb.Matrix[uint32], cfg adapt.Config) (*grb.Vector[uint32], int, error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, 0, fmt.Errorf("lagraph: AdaptiveCC needs a square matrix, got %dx%d", n, A.NCols())
	}
	init := trace.Begin(trace.CatRound, "lagraph.cc-adapt.init")
	A.EnsureCSC() // forced-push rounds scatter through the mirror
	f := grb.NewVector[uint32](n, grb.Dense)
	for i := 0; i < n; i++ {
		f.SetElement(i, uint32(i))
	}
	gp := f.Dup()
	mngp := f.Dup()
	eng := adapt.NewEngine(n, cfg)
	ar := adapt.NewArena[uint32](n)
	init.End()

	rounds := 0
	for {
		if ctx.Stopped() {
			return nil, rounds, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, "lagraph.cc-adapt.round")
		sp.Round = rounds
		stable := false
		err := func() error {
			dec := eng.Decide(gp.NVals())
			gp.Convert(dec.Rep)
			if err := grb.MxV(ctx, mngp, nil, minU32, grb.MinSecond[uint32](), A, gp,
				grb.Desc{Force: dec.Direction.Hint()}); err != nil {
				return err
			}
			if err := grb.ScatterAccum(ctx, f, minU32, f, mngp, grb.Desc{}); err != nil {
				return err
			}
			if err := grb.EWiseAdd(ctx, f, nil, nil, minU32, f, mngp, grb.Desc{}); err != nil {
				return err
			}
			if err := grb.EWiseAdd(ctx, f, nil, nil, minU32, f, gp, grb.Desc{}); err != nil {
				return err
			}
			gpNew := ar.Get(grb.Dense)
			if err := grb.Gather(ctx, gpNew, f, f, grb.Desc{}); err != nil {
				return err
			}
			if vectorsEqualU32(gp, gpNew) {
				ar.Put(gpNew)
				stable = true
				return nil
			}
			ar.Put(gp)
			gp = gpNew
			return nil
		}()
		sp.End()
		if err != nil {
			return nil, rounds, err
		}
		if stable {
			break
		}
	}
	for {
		next := ar.Get(grb.Dense)
		if err := grb.Gather(ctx, next, f, f, grb.Desc{}); err != nil {
			return nil, rounds, err
		}
		if vectorsEqualU32(f, next) {
			ar.Put(next)
			break
		}
		ar.Put(f)
		f = next
	}
	return f, rounds, nil
}
