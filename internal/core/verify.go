package core

import (
	"fmt"

	"graphstudy/internal/verify"
)

// ReferenceCheck computes the serial reference answer for a spec and returns
// its digest in the same canonical form Run produces, so a measurement can
// be validated by digest equality. The second result is false when no
// digest-exact reference exists for the spec (Lonestar's pagerank uses a
// residual formulation whose 10-iteration transient differs from the power
// iteration, so only SS/GB pagerank is digest-checkable).
func ReferenceCheck(spec RunSpec) (uint64, bool) {
	p := Prepare(spec.Input, spec.Scale)
	switch spec.App {
	case BFS:
		return checksum32(verify.BFSLevels(p.G, p.Src)), true
	case CC:
		return componentCheck(verify.Components(p.Sym())), true
	case KTruss:
		return uint64(verify.KTrussEdges(p.Sym(), p.In.KTrussK())), true
	case PR:
		if spec.System == LS {
			return 0, false
		}
		opt := 10
		return rankCheck(verify.PageRank(p.G, 0.85, opt)), true
	case SSSP:
		return checksum64(verify.Dijkstra(p.G, p.Src)), true
	case TC:
		return uint64(verify.TriangleCount(p.Sym())), true
	}
	return 0, false
}

// RunVerified runs the spec and checks the answer against the serial
// reference where one exists, returning an error on mismatch.
func RunVerified(spec RunSpec) (Result, error) {
	res := Run(spec)
	if res.Outcome != OK {
		return res, res.Err
	}
	want, ok := ReferenceCheck(spec)
	if !ok {
		return res, nil
	}
	if res.Check != want {
		return res, fmt.Errorf("core: %v/%v on %s: answer %q (digest %x) does not match the serial reference (digest %x)",
			spec.App, spec.System, spec.Input.Name, res.Value, res.Check, want)
	}
	return res, nil
}
