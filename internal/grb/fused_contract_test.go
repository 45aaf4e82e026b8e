package grb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

// TestFusedBFSStepDistContract pins the FusedBFSStep aliasing contract: the
// kernel stamps levels into the caller's dist in place (that is the fusion)
// but must never convert the caller's vector to another representation
// behind its back. A non-Dense dist is rejected with a clear error and left
// untouched.
func TestFusedBFSStepDistContract(t *testing.T) {
	ctx := NewGaloisBLASContext(2)
	A, err := BuildMatrix(4, 4, []int{0, 1, 2}, []int{1, 2, 3}, []bool{true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	frontier := NewVector[bool](4, List)
	frontier.SetElement(0, true)

	// A sparse dist errors and stays bit-for-bit as it was.
	dist := NewVector[int32](4, Sorted)
	dist.SetElement(0, 1)
	dist.SetElement(3, 7)
	wi, wv := dist.Entries()
	if _, err := FusedBFSStep(ctx, dist, frontier, A, 2); err == nil {
		t.Fatal("FusedBFSStep accepted a Sorted dist; the contract requires Dense")
	} else if !strings.Contains(err.Error(), "Dense") {
		t.Fatalf("error %q should name the Dense requirement", err)
	}
	if dist.Rep() != Sorted {
		t.Fatalf("rejected dist converted to %v; must be left untouched", dist.Rep())
	}
	gi, gv := dist.Entries()
	if len(gi) != len(wi) {
		t.Fatalf("rejected dist has %d entries, had %d", len(gi), len(wi))
	}
	for k := range wi {
		if gi[k] != wi[k] || gv[k] != wv[k] {
			t.Fatalf("rejected dist entry %d = (%d,%d), had (%d,%d)", k, gi[k], gv[k], wi[k], wv[k])
		}
	}

	// A Dense dist is updated in place — same backing vector, same rep —
	// and the discovered neighbor carries the next level.
	dense := NewVector[int32](4, Dense)
	dense.DenseFill(0)
	dense.SetElement(0, 1)
	next, err := FusedBFSStep(ctx, dense, frontier, A, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Rep() != Dense {
		t.Fatalf("dist rep changed to %v", dense.Rep())
	}
	if v, ok := dense.ExtractElement(1); !ok || v != 2 {
		t.Fatalf("dist[1] = %d,%v; want the stamped level 2", v, ok)
	}
	if next.NVals() != 1 {
		t.Fatalf("next frontier has %d entries, want 1", next.NVals())
	}
	if v, ok := next.ExtractElement(1); !ok || !v {
		t.Fatalf("next frontier missing vertex 1 (got %v,%v)", v, ok)
	}
}

// threeCallBFS is the study's BFS round as three API calls — masked
// assign, nvals, masked vxm — run from src until the frontier drains. dist
// holds level+1 per reached vertex and an explicit 0 elsewhere; rounds
// counts the final round that finds the frontier empty.
func threeCallBFS(ctx *Context, A *Matrix[bool], src int) (*Vector[int32], int, error) {
	dist := NewVector[int32](A.NRows(), Dense)
	if err := AssignConstant(ctx, dist, nil, nil, 0, Desc{}); err != nil {
		return nil, 0, err
	}
	frontier := NewVector[bool](A.NRows(), List)
	frontier.SetElement(src, true)
	for level := int32(1); ; level++ {
		if err := AssignConstant(ctx, dist, StructMask(frontier), nil, level, Desc{}); err != nil {
			return nil, 0, err
		}
		if frontier.NVals() == 0 {
			return dist, int(level), nil
		}
		if err := VxM(ctx, frontier, ValueMask(dist).Comp(), nil, LorLand(), frontier, A, Desc{Replace: true}); err != nil {
			return nil, 0, err
		}
	}
}

// fusedBFS is the same search with one FusedBFSStep per round in place of
// the three calls. It stops as soon as the frontier drains, so it runs one
// round fewer than threeCallBFS.
func fusedBFS(ctx *Context, A *Matrix[bool], src int) (*Vector[int32], int, error) {
	dist := NewVector[int32](A.NRows(), Dense)
	if err := AssignConstant(ctx, dist, nil, nil, 0, Desc{}); err != nil {
		return nil, 0, err
	}
	dist.SetElement(src, 1)
	frontier := NewVector[bool](A.NRows(), List)
	frontier.SetElement(src, true)
	rounds := 0
	for level := int32(1); frontier.NVals() > 0; level++ {
		rounds++
		next, err := FusedBFSStep(ctx, dist, frontier, A, level+1)
		if err != nil {
			return nil, rounds, err
		}
		frontier = next
	}
	return dist, rounds, nil
}

// TestFusedBFSStepMatchesThreeCall drives FusedBFSStep to completion and
// holds it to the three-call loop: same levels, one round fewer. The suite
// graphs run on both schedulers, the random ones (self loops, collapsed
// multi-edges, disconnected shards) on the serial context.
func TestFusedBFSStepMatchesThreeCall(t *testing.T) {
	check := func(label string, ctx *Context, g *graph.Graph) bool {
		A := BoolMatrixFromGraph(g)
		src := int(g.MaxOutDegreeVertex())
		want, wantRounds, err := threeCallBFS(ctx, A, src)
		if err != nil {
			t.Fatalf("%s: three-call: %v", label, err)
		}
		got, rounds, err := fusedBFS(ctx, A, src)
		if err != nil {
			t.Fatalf("%s: fused: %v", label, err)
		}
		if rounds != wantRounds-1 {
			t.Errorf("%s: fused rounds = %d, three-call rounds = %d", label, rounds, wantRounds)
			return false
		}
		for i := 0; i < A.NRows(); i++ {
			w, _ := want.ExtractElement(i)
			v, _ := got.ExtractElement(i)
			if v != w {
				t.Errorf("%s: dist[%d] = %d, want %d", label, i, v, w)
				return false
			}
		}
		return true
	}
	for _, name := range []string{"road-USA-W", "rmat22", "indochina04"} {
		in, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := in.Build(gen.ScaleTest)
		for cname, ctx := range map[string]*Context{"SS": NewSuiteSparseContext(4), "GB": NewGaloisBLASContext(4)} {
			check(name+"/"+cname, ctx, g)
		}
	}
	random := func(seed uint16) bool {
		n := uint32(20 + seed%40)
		g := gen.Random(n, int(n)*int(2+seed%6), true, 64, uint64(seed))
		g.SortAdjacency()
		return check(fmt.Sprintf("random-%d", seed), NewSerialContext(), g)
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
