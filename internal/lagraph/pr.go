package lagraph

import (
	"fmt"

	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// PageRankOptions configures the pagerank runs; the study uses damping 0.85
// and exactly 10 iterations.
type PageRankOptions struct {
	Damping    float64
	Iterations int
}

// DefaultPageRankOptions returns the study's settings.
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Iterations: 10}
}

// PageRank is the topology-driven LAGraph pagerank of Table II ("gb").
// Following the study's description, it stores the per-edge pagerank
// contributions in a materialized matrix each iteration: T = D * A where
// D = Diag(r ./ outdeg) (exercising GaloisBLAS's diagonal SpGEMM fast
// path), then reduces T's columns into the importance vector. The edge-data
// materialization is what the gb-res variant of Figure 3a avoids.
// A must hold 1.0 per edge; results match verify.PageRank.
func PageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, fmt.Errorf("lagraph: PageRank needs a square matrix, got %dx%d", n, A.NCols())
	}
	if n == 0 {
		return grb.NewVector[float64](0, grb.Dense), nil
	}
	d := opt.Damping
	init := trace.Begin(trace.CatRound, "lagraph.pr.init")
	A.EnsureCSC() // the dense-vector vxm pulls through columns

	// outdeg and its reciprocal (0 keeps dangling vertices inert).
	outdeg := grb.ReduceRows(ctx, grb.PlusMonoid[float64](), A)
	invdeg := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, invdeg, nil, nil, 0, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	if err := grb.Apply(ctx, invdeg, nil, nil, func(x float64) float64 { return 1 / x }, outdeg, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	danglingMask := grb.StructMask(outdeg).Comp()

	r := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, r, nil, nil, 1/float64(n), grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}

	tmp := grb.NewVector[float64](n, grb.Dense)
	imp := grb.NewVector[float64](n, grb.Dense)
	ones := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, ones, nil, nil, 1, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	init.End()
	for it := 0; it < opt.Iterations; it++ {
		if ctx.Stopped() {
			return nil, ErrTimeout
		}
		sp := trace.Begin(trace.CatRound, "lagraph.pr.round")
		sp.Round = it + 1
		err := func() error {
			// Dangling mass: sum of r over zero-out-degree vertices.
			dangling := grb.NewVector[float64](n, grb.Sorted)
			if err := grb.SelectVector(ctx, dangling, danglingMask, func(float64, int, int) bool { return true }, r, grb.Desc{Replace: true}); err != nil {
				return err
			}
			dsum := grb.ReduceVector(ctx, grb.PlusMonoid[float64](), dangling)

			// tmp = r ./ outdeg.
			if err := grb.EWiseMult(ctx, tmp, nil, nil, func(a, b float64) float64 { return a * b }, r, invdeg, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// T = Diag(tmp) * A materializes the contribution of every edge
			// (the study: "gb uses edge data to store the pagerank
			// contributions"). The diagonal fast path makes this a row scaling.
			D := grb.Diag(tmp)
			T, err := grb.MxM(ctx, nil, grb.PlusTimes[float64](), D, A)
			if err != nil {
				return err
			}
			// imp(j) = sum_i T(i,j): a column reduction via ones' * T.
			if err := grb.VxM(ctx, imp, nil, nil, grb.PlusTimes[float64](), ones, T, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// r = (1-d)/n + d*dangling/n + d*imp.
			base := (1-d)/float64(n) + d*dsum/float64(n)
			if err := grb.AssignConstant(ctx, r, nil, nil, base, grb.Desc{}); err != nil {
				return err
			}
			return grb.Apply(ctx, r, nil, func(a, b float64) float64 { return a + b },
				func(x float64) float64 { return d * x }, imp, grb.Desc{})
		}()
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// prStep is one engine's residual-pagerank iteration: fold res into pr,
// then replace res with the damped push of res ./ outdeg along A.
type prStep func(pr, res, invdeg *grb.Vector[float64]) error

// residualPageRank is the one residual-pagerank round loop every engine
// runs on. It checks the matrix, builds the reciprocal out-degrees, pr = 0
// and res = (1-d)/n in the span+".init" span, and runs opt.Iterations
// span+".round" spans of the step. start runs last inside the init span and
// returns the engine's step.
func residualPageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions, span string, start func() prStep) (*grb.Vector[float64], error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, fmt.Errorf("%s: needs a square matrix, got %dx%d", span, n, A.NCols())
	}
	if n == 0 {
		return grb.NewVector[float64](0, grb.Dense), nil
	}
	init := trace.Begin(trace.CatRound, span+".init")
	A.EnsureCSC() // the dense-vector vxm pulls through columns

	invdeg, err := prInvDeg(ctx, A)
	if err != nil {
		init.End()
		return nil, err
	}
	pr := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, pr, nil, nil, 0, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	res := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, res, nil, nil, (1-opt.Damping)/float64(n), grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	step := start()
	init.End()

	roundSpan := span + ".round"
	for it := 0; it < opt.Iterations; it++ {
		if ctx.Stopped() {
			return nil, ErrTimeout
		}
		sp := trace.Begin(trace.CatRound, roundSpan)
		sp.Round = it + 1
		err := step(pr, res, invdeg)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// prInvDeg computes the reciprocal out-degree vector (dense, 0 for dangling
// vertices), the residual formulations' divisor.
func prInvDeg(ctx *grb.Context, A *grb.Matrix[float64]) (*grb.Vector[float64], error) {
	n := A.NRows()
	outdeg := grb.ReduceRows(ctx, grb.PlusMonoid[float64](), A)
	invdeg := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, invdeg, nil, nil, 0, grb.Desc{}); err != nil {
		return nil, err
	}
	if err := grb.Apply(ctx, invdeg, nil, nil, func(x float64) float64 { return 1 / x }, outdeg, grb.Desc{}); err != nil {
		return nil, err
	}
	return invdeg, nil
}

// PageRankResidual is the study's "gb-res" variant (Figure 3a): a residual
// formulation matching the computation Lonestar's residual pagerank does,
// written in the matrix API. The two residual operations per iteration
// (fold the residual into the rank, and divide the residual by out-degree)
// are separate API calls, so the residual vector is traversed twice — the
// fusion opportunity the graph API exploits and this API cannot express.
//
// It intentionally performs no dangling redistribution, exactly like the
// Lonestar implementation it mirrors; compare its output against
// lonestar.PageRankResidual, not verify.PageRank.
func PageRankResidual(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], error) {
	return residualPageRank(ctx, A, opt, "lagraph.pr-res", func() prStep {
		return residualStep(ctx, A, opt.Damping)
	})
}

// residualStep is PageRankResidual's iteration, four eager API calls.
func residualStep(ctx *grb.Context, A *grb.Matrix[float64], d float64) prStep {
	contrib := grb.NewVector[float64](A.NRows(), grb.Dense)
	plus := func(a, b float64) float64 { return a + b }
	return func(pr, res, invdeg *grb.Vector[float64]) error {
		// Pass 1 over res: pr += res.
		if err := grb.EWiseAdd(ctx, pr, nil, nil, plus, pr, res, grb.Desc{}); err != nil {
			return err
		}
		// Pass 2 over res: contrib = res ./ outdeg.
		if err := grb.EWiseMult(ctx, contrib, nil, nil, func(a, b float64) float64 { return a * b }, res, invdeg, grb.Desc{Replace: true}); err != nil {
			return err
		}
		// res = d * (A' contrib).
		if err := grb.VxM(ctx, res, nil, nil, grb.PlusTimes[float64](), contrib, A, grb.Desc{Replace: true}); err != nil {
			return err
		}
		return grb.Apply(ctx, res, nil, nil, func(x float64) float64 { return d * x }, res, grb.Desc{Replace: true})
	}
}

// PageRankResidualTraj is PageRankResidual with the residual trajectory
// captured: traj[k] is the residual at the start of iteration k (so
// pr = traj[0] + ... + traj[T-1], folded in iteration order). It runs
// PageRankResidual's step, so the returned pr is bit-identical to it; the
// trajectory is what IncrementalPageRank patches on the next snapshot.
func PageRankResidualTraj(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], []*grb.Vector[float64], error) {
	var traj []*grb.Vector[float64]
	pr, err := residualPageRank(ctx, A, opt, "lagraph.pr-res", func() prStep {
		step := residualStep(ctx, A, opt.Damping)
		traj = make([]*grb.Vector[float64], 0, opt.Iterations)
		return func(pr, res, invdeg *grb.Vector[float64]) error {
			traj = append(traj, res.Dup())
			return step(pr, res, invdeg)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return pr, traj, nil
}

// Ranks extracts a dense rank slice for verification (implicit entries 0).
func Ranks(r *grb.Vector[float64]) []float64 {
	sp := trace.Begin(trace.CatRound, "lagraph.extract")
	defer sp.End()
	out := make([]float64, r.Size())
	r.ForEach(func(i int, v float64) { out[i] = v })
	return out
}
