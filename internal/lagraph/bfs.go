package lagraph

import (
	"fmt"

	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// bfsStep is one engine's BFS round at level: it stamps level into dist at
// the frontier's positions and returns the next frontier (the unvisited
// out-neighbours of this one), or nil once the frontier is empty and the
// search is done.
type bfsStep func(dist *grb.Vector[int32], frontier *grb.Vector[bool], level int32) (*grb.Vector[bool], error)

// bfs is the one BFS round loop every engine runs on. It checks the
// arguments, builds dist (dense, 0 everywhere) and the frontier {src} in the
// span+".init" span, and runs one span+".round" span per level until the
// step reports the frontier empty. start runs first inside the init span and
// returns the engine's step; it is where an engine builds what it needs
// before the first round.
func bfs(ctx *grb.Context, A *grb.Matrix[bool], src int, span string, start func() bfsStep) (*grb.Vector[int32], int, error) {
	if err := checkSource(span, A, src); err != nil {
		return nil, 0, err
	}
	n := A.NRows()
	init := trace.Begin(trace.CatRound, span+".init")
	step := start()
	// dist = 0 everywhere (GrB_assign with GrB_ALL makes it dense).
	dist := grb.NewVector[int32](n, grb.Dense)
	if err := grb.AssignConstant(ctx, dist, nil, nil, 0, grb.Desc{}); err != nil {
		init.End()
		return nil, 0, err
	}
	frontier := grb.NewVector[bool](n, grb.List)
	frontier.SetElement(src, true)
	init.End()

	roundSpan := span + ".round"
	rounds := 0
	for {
		if ctx.Stopped() {
			return nil, rounds, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, roundSpan)
		sp.Round = rounds
		sp.NNZIn = int64(frontier.NVals())
		next, err := step(dist, frontier, int32(rounds))
		if next != nil {
			frontier = next
		}
		sp.NNZOut = int64(frontier.NVals())
		sp.End()
		if err != nil {
			return nil, rounds, err
		}
		if next == nil {
			return dist, rounds, nil
		}
	}
}

// checkSource rejects what every source-rooted driver rejects: a non-square
// adjacency matrix and a source that is not one of its vertices.
func checkSource[T any](span string, A *grb.Matrix[T], src int) error {
	n := A.NRows()
	if A.NCols() != n {
		return fmt.Errorf("%s: needs a square matrix, got %dx%d", span, n, A.NCols())
	}
	if src < 0 || src >= n {
		return fmt.Errorf("%s: source %d out of range [0,%d)", span, src, n)
	}
	return nil
}

// BFS is the study's Algorithm 2: round-based, data-driven, push-style
// breadth-first search over the boolean adjacency matrix. The returned dense
// vector holds level+1 per reached vertex (the source has value 1) and an
// explicit 0 for unreached vertices, exactly like the LAGraph code the
// paper lists: the dist vector is densified with 0 first, and the non-zero
// values then double as the "visited" value mask.
//
// Each round issues three API calls — masked assign, nvals, and masked vxm —
// which is the "lightweight loops" limitation the study quantifies (three
// passes per round versus Lonestar's single fused loop).
func BFS(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error) {
	return bfs(ctx, A, src, "lagraph.bfs", func() bfsStep {
		return func(dist *grb.Vector[int32], frontier *grb.Vector[bool], level int32) (*grb.Vector[bool], error) {
			// Pass 1: dist<frontier> = level.
			if err := grb.AssignConstant(ctx, dist, grb.StructMask(frontier), nil, level, grb.Desc{}); err != nil {
				return nil, err
			}
			// Pass 2: termination check.
			if frontier.NVals() == 0 {
				return nil, nil
			}
			// Pass 3: frontier<!dist> = frontier vxm A (LOR.LAND, replace).
			// The value mask over dist keeps visited vertices (non-zero level)
			// out of the new frontier.
			mask := grb.ValueMask(dist).Comp()
			return frontier, grb.VxM(ctx, frontier, mask, nil, grb.LorLand(), frontier, A, grb.Desc{Replace: true})
		}
	})
}

// BFSLevels converts the BFS result vector to the canonical reference form:
// hop counts with source 0 and Inf32 (MaxUint32) for unreachable vertices.
func BFSLevels(dist *grb.Vector[int32]) []uint32 {
	sp := trace.Begin(trace.CatRound, "lagraph.extract")
	defer sp.End()
	out := make([]uint32, dist.Size())
	for i := range out {
		out[i] = ^uint32(0)
	}
	dist.ForEach(func(i int, v int32) {
		if v > 0 {
			out[i] = uint32(v - 1)
		}
	})
	return out
}
