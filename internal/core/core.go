// Package core orchestrates the study: it runs any (workload, system,
// input, variant) combination through a uniform interface, timing it the way
// the paper does (preprocessing excluded, timeout enforced, repeated runs
// averaged) and collecting the auxiliary measurements each experiment needs
// (allocation footprints for Table III, work/span statistics for Figure 2,
// software performance counters for Tables IV and V).
package core

import (
	"fmt"
	"strings"
	"time"
)

// System identifies one of the three systems under study.
type System int

const (
	// SS is LAGraph on the SuiteSparse-style runtime (static scheduling).
	SS System = iota
	// GB is LAGraph on GaloisBLAS (work-stealing runtime).
	GB
	// LS is Lonestar on the Galois graph API.
	LS
)

func (s System) String() string {
	switch s {
	case SS:
		return "SS"
	case GB:
		return "GB"
	case LS:
		return "LS"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// Systems lists all runtimes in the paper's column order.
func Systems() []System { return []System{SS, GB, LS} }

// ParseSystem converts a name ("SS", "GB", "LS", case-insensitive).
func ParseSystem(s string) (System, error) {
	switch strings.ToUpper(s) {
	case "SS":
		return SS, nil
	case "GB":
		return GB, nil
	case "LS":
		return LS, nil
	}
	return 0, fmt.Errorf("core: unknown system %q (want SS, GB, or LS)", s)
}

// App identifies one of the six study workloads.
type App int

const (
	BFS App = iota
	CC
	KTruss
	PR
	SSSP
	TC
)

// Apps lists all workloads in the paper's row order.
func Apps() []App { return []App{BFS, CC, KTruss, PR, SSSP, TC} }

func (a App) String() string {
	switch a {
	case BFS:
		return "bfs"
	case CC:
		return "cc"
	case KTruss:
		return "ktruss"
	case PR:
		return "pr"
	case SSSP:
		return "sssp"
	case TC:
		return "tc"
	}
	return fmt.Sprintf("App(%d)", int(a))
}

// ParseApp converts a workload name.
func ParseApp(s string) (App, error) {
	for _, a := range Apps() {
		if a.String() == strings.ToLower(s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown app %q", s)
}

// Outcome classifies a run, matching Table II's cell annotations.
type Outcome int

const (
	// OK: the run completed and (if checked) verified.
	OK Outcome = iota
	// TO: the run exceeded the timeout.
	TO
	// ERR: the run failed (the analog of the paper's "C" correctness and
	// OOM entries).
	ERR
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case TO:
		return "TO"
	case ERR:
		return "ERR"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Variant names the algorithm variants of the differential analysis
// (Figure 3). The empty variant is the Table II default for each system.
type Variant string

const (
	VDefault  Variant = ""
	VLSSV     Variant = "ls-sv"     // cc: Shiloach-Vishkin in Lonestar
	VLSSoA    Variant = "ls-soa"    // pr: structure-of-arrays Lonestar
	VLSNoTile Variant = "ls-notile" // sssp: Lonestar without edge tiling
	VGBRes    Variant = "gb-res"    // pr: residual formulation in GraphBLAS
	VGBSort   Variant = "gb-sort"   // tc: SandiaDot on the degree-sorted graph
	VGBLL     Variant = "gb-ll"     // tc: triangle listing in GraphBLAS
	VFused    Variant = "fused"     // bfs/pr/sssp: lazy-DAG GraphBLAS with fusion
	VAdaptive Variant = "adaptive"  // bfs/pr/sssp/cc: runtime direction+rep adaptation
	// VIncremental answers for the current snapshot of a mutating graph by
	// reusing the previous snapshot's result plus the edge delta
	// (RunSpec.Mutation). Falls back to from-scratch — with an auditable
	// delta.fallback trace span — whenever reuse is unsound; either way the
	// digest matches the from-scratch run on the same snapshot.
	VIncremental Variant = "incremental" // bfs/cc/pr: delta reuse across snapshots
)

// Variants lists every named variant.
func Variants() []Variant {
	return []Variant{VLSSV, VLSSoA, VLSNoTile, VGBRes, VGBSort, VGBLL, VFused, VAdaptive, VIncremental}
}

// ParseVariant converts a variant name; the empty string is the default.
func ParseVariant(s string) (Variant, error) {
	if s == "" {
		return VDefault, nil
	}
	for _, v := range Variants() {
		if string(v) == s {
			return v, nil
		}
	}
	return VDefault, fmt.Errorf("core: unknown variant %q", s)
}

// ValidVariant reports whether the (app, system, variant) cell has a row in
// the cell table, that is, whether Run can run it. The default variant
// applies to every app on every system.
func ValidVariant(a App, s System, v Variant) bool {
	return lookupCell(a, s, v) != nil
}

// Label renders a (system, variant) pair the way the paper does.
func Label(s System, v Variant) string {
	if v == VDefault {
		return strings.ToLower(s.String())
	}
	return string(v)
}

// Elapsed wraps time.Duration to render like the paper's tables (seconds
// with two decimals).
func Elapsed(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
