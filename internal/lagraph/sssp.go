package lagraph

import (
	"fmt"
	"unsafe"

	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// SSSPResult carries the distance vector and round statistics of the
// bulk-synchronous delta-stepping run.
type SSSPResult[T grb.Number] struct {
	// Dist is dense; unreached vertices hold grb.MaxValue[T]().
	Dist *grb.Vector[T]
	// Rounds counts light-edge relaxation rounds (each is a full
	// vxm + compare + select sequence with barriers in between). The
	// study's asynchronous Lonestar delta-stepping has no such rounds —
	// its absence is the headline 100x-plus win on road networks.
	Rounds int
	// Buckets counts distinct delta buckets processed.
	Buckets int
}

// ssspEngine is one engine's part of delta-stepping: its light-edge round,
// its heavy-edge phase, and where the loop's scratch vectors come from.
type ssspEngine[T grb.Number] struct {
	// scratch hands out the bucket-selection vectors.
	scratch scratch[T]
	// light relaxes the bucket's light edges once from tmasked, folds the
	// improvements into t and returns the next inner frontier: the improved
	// entries still below upper.
	light func(t, tmasked *grb.Vector[T], upper T) (*grb.Vector[T], error)
	// heavy relaxes the heavy edges once from tB, the non-empty set of
	// entries settled in the bucket, folding the result into t.
	heavy func(t, tB *grb.Vector[T]) error
}

// scratch is where per-round vectors come from: an adapt.Arena pools them,
// fresh allocates each one and leaves it to the collector.
type scratch[T any] interface {
	Get(rep grb.Rep) *grb.Vector[T]
	Put(v *grb.Vector[T])
}

// fresh is the scratch source of the eager and fused engines; its value is
// the vector dimension.
type fresh[T any] int

func (n fresh[T]) Get(rep grb.Rep) *grb.Vector[T] { return grb.NewVector[T](int(n), rep) }
func (fresh[T]) Put(*grb.Vector[T])               {}

// deltaStepping is the one bulk-synchronous delta-stepping loop every engine
// runs on. It checks the arguments, splits A into light (w <= delta) and
// heavy (w > delta) matrices and builds t in the span+".init" span, then
// walks the buckets: a span+".round" span per light-edge round until the
// bucket is stable, one heavy-edge phase, and an advance to the bucket
// holding the smallest unsettled distance. start runs inside the init span
// right after the split and returns the engine.
func deltaStepping[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T, span string,
	start func(AL, AH *grb.Matrix[T]) ssspEngine[T]) (SSSPResult[T], error) {
	if err := checkSource(span, A, src); err != nil {
		return SSSPResult[T]{}, err
	}
	if delta <= 0 {
		return SSSPResult[T]{}, fmt.Errorf("%s: delta must be positive", span)
	}
	n := A.NRows()
	inf := grb.MaxValue[T]()

	// Split edges into light and heavy matrices (two materialized copies of
	// the graph — the matrix API's way of expressing delta-stepping).
	init := trace.Begin(trace.CatRound, span+".init")
	AL := grb.SelectMatrix(A, func(v T, _, _ int) bool { return v <= delta })
	AH := grb.SelectMatrix(A, func(v T, _, _ int) bool { return v > delta })
	if init.Enabled() {
		var z T
		es := 4 + int64(unsafe.Sizeof(z))
		init.Bytes = (AL.NVals()+AH.NVals())*es + 2*int64(n+1)*8
	}
	eng := start(AL, AH)

	t := grb.NewVector[T](n, grb.Dense)
	if err := grb.AssignConstant(ctx, t, nil, nil, inf, grb.Desc{}); err != nil {
		init.End()
		return SSSPResult[T]{}, err
	}
	t.SetElement(src, 0)
	init.End()

	res := SSSPResult[T]{Dist: t}
	s := eng.scratch
	roundSpan := span + ".round"
	lower, upper := T(0), delta
	inBucket := func(v T, _, _ int) bool { return v >= lower && v < upper }
	for {
		if ctx.Stopped() {
			return res, ErrTimeout
		}
		res.Buckets++
		// tmasked = entries of t in the current bucket [lower, upper).
		tmasked := s.Get(grb.Sorted)
		if err := grb.SelectVector(ctx, tmasked, nil, inBucket, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		// Light-edge phase: relax within the bucket until stable.
		for tmasked.NVals() > 0 {
			if ctx.Stopped() {
				return res, ErrTimeout
			}
			res.Rounds++
			sp := trace.Begin(trace.CatRound, roundSpan)
			sp.Round = res.Rounds
			sp.NNZIn = int64(tmasked.NVals())
			next, err := eng.light(t, tmasked, upper)
			if err == nil {
				s.Put(tmasked)
				tmasked = next
			}
			sp.NNZOut = int64(tmasked.NVals())
			sp.End()
			if err != nil {
				return res, err
			}
		}
		s.Put(tmasked)
		// Heavy-edge phase: relax once from everything settled in the bucket.
		tB := s.Get(grb.Sorted)
		if err := grb.SelectVector(ctx, tB, nil, inBucket, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		if tB.NVals() > 0 {
			if err := eng.heavy(t, tB); err != nil {
				return res, err
			}
		}
		s.Put(tB)
		// Advance to the bucket containing the smallest unsettled distance.
		remaining := s.Get(grb.Sorted)
		if err := grb.SelectVector(ctx, remaining, nil, func(v T, _, _ int) bool { return v >= upper && v != inf }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		if remaining.NVals() == 0 {
			return res, nil
		}
		m := grb.ReduceVector(ctx, grb.MinMonoid[T](), remaining)
		s.Put(remaining)
		lower = m / delta * delta // integer bucket floor (T is integral here)
		upper = lower + delta
	}
}

// minOf is the min-plus fold of a tentative distance into t.
func minOf[T grb.Number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// lessThan is 1 where a improves on b, else 0: the improved-flag operator.
func lessThan[T grb.Number](a, b T) T {
	if a < b {
		return 1
	}
	return 0
}

// SSSP is bulk-synchronous delta-stepping in the matrix API, modeled on
// LAGraph's variant 12c (the study's Table II choice): the edge set is split
// into light (w <= delta) and heavy (w > delta) matrices; each bucket phase
// repeatedly relaxes light edges with a min-plus vxm until the bucket
// stabilizes, then relaxes heavy edges once and advances to the bucket
// holding the smallest unsettled distance.
//
// T is uint32 for every graph except eukarya, where the study switches to
// 64-bit distances (its weights reach 2^20).
func SSSP[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T) (SSSPResult[T], error) {
	n := A.NRows()
	return deltaStepping(ctx, A, src, delta, "lagraph.sssp", func(AL, AH *grb.Matrix[T]) ssspEngine[T] {
		return ssspEngine[T]{
			scratch: fresh[T](n),
			light: func(t, tmasked *grb.Vector[T], upper T) (*grb.Vector[T], error) {
				tReq := grb.NewVector[T](n, grb.Sorted)
				if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), tmasked, AL, grb.Desc{Replace: true}); err != nil {
					return nil, err
				}
				// improved = positions where tReq < t (an eWiseMult producing a
				// 0/1 vector, then used as a value mask — three more passes).
				improved := grb.NewVector[T](n, grb.Sorted)
				if err := grb.EWiseMult(ctx, improved, nil, nil, lessThan[T], tReq, t, grb.Desc{Replace: true}); err != nil {
					return nil, err
				}
				improvedMask := grb.ValueMask(improved)
				// t = min(t, tReq).
				if err := grb.EWiseAdd(ctx, t, nil, nil, minOf[T], t, tReq, grb.Desc{}); err != nil {
					return nil, err
				}
				// Next inner frontier: improved entries still inside the bucket.
				next := grb.NewVector[T](n, grb.Sorted)
				return next, grb.SelectVector(ctx, next, improvedMask, func(v T, _, _ int) bool { return v < upper }, tReq, grb.Desc{Replace: true})
			},
			heavy: func(t, tB *grb.Vector[T]) error {
				tReq := grb.NewVector[T](n, grb.Sorted)
				if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), tB, AH, grb.Desc{Replace: true}); err != nil {
					return err
				}
				return grb.EWiseAdd(ctx, t, nil, nil, minOf[T], t, tReq, grb.Desc{})
			},
		}
	})
}

// SSSPBellmanFord is the topology-driven matrix sssp (LAGraph ships one):
// every round relaxes every edge with one min-plus vxm over the full
// distance vector, Jacobi style, until no distance improves. It is the
// simplest matrix formulation and the foil for delta-stepping: on a graph
// of diameter D it runs Θ(D) full-matrix products.
func SSSPBellmanFord[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int) (SSSPResult[T], error) {
	n := A.NRows()
	if A.NCols() != n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSPBellmanFord needs a square matrix, got %dx%d", n, A.NCols())
	}
	if src < 0 || src >= n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSPBellmanFord source %d out of range [0,%d)", src, n)
	}
	inf := grb.MaxValue[T]()
	minT := func(a, b T) T {
		if a < b {
			return a
		}
		return b
	}
	t := grb.NewVector[T](n, grb.Dense)
	if err := grb.AssignConstant(ctx, t, nil, nil, inf, grb.Desc{}); err != nil {
		return SSSPResult[T]{}, err
	}
	t.SetElement(src, 0)

	res := SSSPResult[T]{Dist: t, Buckets: 1}
	for {
		if ctx.Stopped() {
			return res, ErrTimeout
		}
		res.Rounds++
		if res.Rounds > n+1 {
			return res, fmt.Errorf("lagraph: SSSPBellmanFord exceeded %d rounds (negative cycle?)", n)
		}
		sp := trace.Begin(trace.CatRound, "lagraph.sssp-bf.round")
		sp.Round = res.Rounds
		stop := false
		err := func() error {
			// tReq = t vxm A (min-plus) over every finite distance.
			finite := grb.NewVector[T](n, grb.Sorted)
			if err := grb.SelectVector(ctx, finite, nil, func(v T, _, _ int) bool { return v != inf }, t, grb.Desc{Replace: true}); err != nil {
				return err
			}
			tReq := grb.NewVector[T](n, grb.Sorted)
			if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), finite, A, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// improved = positions where tReq < t.
			improved := grb.NewVector[T](n, grb.Sorted)
			lt := func(a, b T) T {
				if a < b {
					return 1
				}
				return 0
			}
			if err := grb.EWiseMult(ctx, improved, nil, nil, lt, tReq, t, grb.Desc{Replace: true}); err != nil {
				return err
			}
			if grb.ValueMask(improved).Count() == 0 {
				stop = true
				return nil
			}
			return grb.EWiseAdd(ctx, t, nil, nil, minT, t, tReq, grb.Desc{})
		}()
		sp.End()
		if err != nil {
			return res, err
		}
		if stop {
			break
		}
	}
	return res, nil
}

// Distances extracts the distance vector as uint64 with Inf64 for
// unreachable vertices, the form the verifier compares.
func Distances[T grb.Number](dist *grb.Vector[T]) []uint64 {
	sp := trace.Begin(trace.CatRound, "lagraph.extract")
	defer sp.End()
	inf := grb.MaxValue[T]()
	out := make([]uint64, dist.Size())
	for i := range out {
		out[i] = ^uint64(0)
	}
	dist.ForEach(func(i int, v T) {
		if v != inf {
			out[i] = uint64(v)
		}
	})
	return out
}
