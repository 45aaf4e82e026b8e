package lagraph

import (
	"graphstudy/internal/fuse"
	"graphstudy/internal/grb"
)

// This file holds the "fused grb" engines: per-round steps for the round
// drivers in bfs.go / pr.go / sssp.go, with each round body recorded as a
// lazy expression DAG (internal/fuse) instead of issued as eager grb
// calls. The
// planner pattern-matches the chains the study's section V identifies as
// the matrix API's fusion gap — the masked BFS assign+expand pair, the two
// residual passes of pagerank, the delta-stepping relaxation chain — and
// lowers them onto single-traversal composite kernels. Results are
// bit-identical to the eager ports (internal/verify's fused differential
// suite holds all three to this across the corpus and worker counts); only
// the intermediates change, and the elided bytes are reported through
// fused-category trace spans.

// FusedBFS is BFS with the round body built as a two-node DAG:
//
//	dist<struct(frontier)> = level
//	frontier<!value(dist)> = frontier ⊗ A (lor_land, replace)
//
// which the planner fuses into one frontier traversal (no mask bitmaps, no
// assign entry list). Rounds and the returned vector match BFS exactly.
func FusedBFS(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error) {
	return bfs(ctx, A, src, "lagraph.bfs-dag", func() bfsStep {
		return func(dist *grb.Vector[int32], frontier *grb.Vector[bool], level int32) (*grb.Vector[bool], error) {
			// The eager step's final round runs its assign against an empty
			// frontier mask — a no-op — so stopping before the program keeps
			// both the result and the round count identical.
			if frontier.NVals() == 0 {
				return nil, nil
			}
			p := fuse.NewProgram(ctx)
			fuse.AssignConstant(p, dist, fuse.StructOf(frontier), nil, level, grb.Desc{})
			fuse.VxM(p, frontier, fuse.ValueOf(dist).Comp(), nil, grb.LorLand(), frontier, A, grb.Desc{Replace: true})
			return frontier, p.Run()
		}
	})
}

// FusedPageRank is PageRankResidual with each iteration recorded as a
// four-node DAG:
//
//	pr      = pr + res
//	contrib = res * invdeg (replace)
//	res     = contrib ⊗ A (plus_times, replace)
//	res     = d * res (replace)
//
// The planner fuses the first pair (the two passes over the residual the
// study calls out as the API gap) and the second (the product re-scaled in
// place). Like the eager variant it performs no dangling redistribution;
// compare against lonestar.PageRankResidual.
func FusedPageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], error) {
	return residualPageRank(ctx, A, opt, "lagraph.pr-dag", func() prStep {
		contrib := grb.NewVector[float64](A.NRows(), grb.Dense)
		plus := func(a, b float64) float64 { return a + b }
		times := func(a, b float64) float64 { return a * b }
		scale := func(x float64) float64 { return opt.Damping * x }
		return func(pr, res, invdeg *grb.Vector[float64]) error {
			p := fuse.NewProgram(ctx)
			fuse.EWiseAdd(p, pr, fuse.NoMask(), nil, plus, pr, res, grb.Desc{})
			fuse.EWiseMult(p, contrib, fuse.NoMask(), nil, times, res, invdeg, grb.Desc{Replace: true})
			fuse.VxM(p, res, fuse.NoMask(), nil, grb.PlusTimes[float64](), contrib, A, grb.Desc{Replace: true})
			fuse.Apply(p, res, fuse.NoMask(), nil, scale, res, grb.Desc{Replace: true})
			return p.Run()
		}
	})
}

// FusedSSSP is SSSP (bulk-synchronous delta-stepping) with the light-edge
// relaxation chain recorded as a four-node DAG —
//
//	tReq     = tmasked ⊗ AL (min_plus, replace)   tReq a temp
//	improved = lt(tReq, t) (replace)              improved a temp
//	t        = min(t, tReq)
//	next     = tReq where v < upper, <value(improved)> (replace)
//
// — which the planner fuses into the SpMV plus one pass, never
// materializing tReq or improved. The heavy phase's product-then-fold pair
// fuses the same way. Bucket selection stays eager: its control flow reads
// entry counts between operations.
func FusedSSSP[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T) (SSSPResult[T], error) {
	n := A.NRows()
	return deltaStepping(ctx, A, src, delta, "lagraph.sssp-dag", func(AL, AH *grb.Matrix[T]) ssspEngine[T] {
		return ssspEngine[T]{
			scratch: fresh[T](n),
			light: func(t, tmasked *grb.Vector[T], upper T) (*grb.Vector[T], error) {
				tReq := grb.NewVector[T](n, grb.Sorted)
				improved := grb.NewVector[T](n, grb.Sorted)
				next := grb.NewVector[T](n, grb.Sorted)
				p := fuse.NewProgram(ctx)
				p.Temp(tReq, improved)
				fuse.VxM(p, tReq, fuse.NoMask(), nil, grb.MinPlus[T](), tmasked, AL, grb.Desc{Replace: true})
				fuse.EWiseMult(p, improved, fuse.NoMask(), nil, lessThan[T], tReq, t, grb.Desc{Replace: true})
				fuse.EWiseAdd(p, t, fuse.NoMask(), nil, minOf[T], t, tReq, grb.Desc{})
				fuse.Select(p, next, fuse.ValueOf(improved), func(v T, _, _ int) bool { return v < upper }, tReq, grb.Desc{Replace: true})
				return next, p.Run()
			},
			heavy: func(t, tB *grb.Vector[T]) error {
				tReq := grb.NewVector[T](n, grb.Sorted)
				p := fuse.NewProgram(ctx)
				p.Temp(tReq)
				fuse.VxM(p, tReq, fuse.NoMask(), nil, grb.MinPlus[T](), tB, AH, grb.Desc{Replace: true})
				fuse.EWiseAdd(p, t, fuse.NoMask(), nil, minOf[T], t, tReq, grb.Desc{})
				return p.Run()
			},
		}
	})
}
