// Package adapt is the runtime decision layer for the matrix API's
// round-based kernels: per round it picks the traversal direction (push
// vs. pull) and the frontier representation from the measured frontier
// density, with GraphBLAST-style α/β thresholds and hysteresis so
// neither choice can oscillate on a jittering density.
//
// The engine is pure policy: it never touches vectors itself. Round
// loops feed it the frontier's nvals, get back a Decision, and apply it
// (Convert the frontier, set Desc.Force). Every decision is recorded as
// a trace.CatAdapt span named for the outcome, so a trace alone shows
// which direction and representation each round ran with and at what
// density — the observability the metamorphic equivalence suite in
// internal/verify leans on.
//
// Determinism contract: decisions depend only on (round, nvals, config).
// A forced decision (Config.ForceDirection / ForceRep) must produce the
// same result bits as the free-running engine; internal/verify enforces
// this across the whole corpus.
package adapt

import (
	"fmt"

	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// Direction selects the traversal strategy for one round.
type Direction int

const (
	// Push expands the frontier's out-edges (the SAXPY kernel); cheap
	// while the frontier is sparse.
	Push Direction = iota
	// Pull dots every candidate position against the frontier through
	// the CSC mirror (the SDOT kernel); cheap once the frontier is dense
	// enough that most positions have an in-frontier neighbor.
	Pull
)

func (d Direction) String() string {
	if d == Pull {
		return "pull"
	}
	return "push"
}

// Directions lists both traversal directions, push first.
func Directions() []Direction { return []Direction{Push, Pull} }

// Config holds the thresholds of the decision engine. All densities are
// frontier nvals divided by the vector dimension, in [0, 1].
type Config struct {
	// Alpha is the pull threshold: density >= Alpha switches to Pull
	// (GraphBLAST's α). Must be > Beta for the hysteresis band to exist.
	Alpha float64
	// Beta is the push threshold: density <= Beta switches back to Push
	// (GraphBLAST's β). Densities strictly between Beta and Alpha keep
	// the previous direction — the hysteresis band.
	Beta float64

	// B1, B2, B3 are the representation ladder's band edges: the target
	// is List below B1, Sorted in [B1, B2), Bitmap in [B2, B3), and
	// Dense at B3 and above.
	B1, B2, B3 float64
	// Hyst widens the current representation's band by this relative
	// fraction on both edges before a switch fires, so a density
	// jittering around a band edge cannot thrash conversions.
	Hyst float64

	// ForceDirection pins the direction, overriding the measured choice
	// (decision injection for the equivalence suite). Nil means free.
	ForceDirection *Direction
	// ForceRep pins the frontier representation the same way.
	ForceRep *grb.Rep
}

// DefaultConfig returns the thresholds used by the adaptive variants:
// α=0.05 / β=0.01 direction thresholds (α is direction-optimized BFS's
// classic cutoff: pull once the frontier holds 5% of the vertices), and
// rep bands that keep tiny frontiers in List, promote through Sorted and
// Bitmap, and densify at 25%.
func DefaultConfig() Config {
	return Config{Alpha: 0.05, Beta: 0.01, B1: 0.002, B2: 0.02, B3: 0.25, Hyst: 0.5}
}

// Force returns a copy of c with both decisions pinned.
func (c Config) Force(d Direction, r grb.Rep) Config {
	c.ForceDirection, c.ForceRep = &d, &r
	return c
}

// ForceDir returns a copy of c with only the direction pinned.
func (c Config) ForceDir(d Direction) Config {
	c.ForceDirection = &d
	return c
}

// Validate reports a misconfigured engine before it can misdecide.
func (c Config) Validate() error {
	if !(c.Beta < c.Alpha) {
		return fmt.Errorf("adapt: direction thresholds need Beta < Alpha, got β=%v α=%v", c.Beta, c.Alpha)
	}
	if !(c.B1 <= c.B2 && c.B2 <= c.B3) {
		return fmt.Errorf("adapt: rep bands must be ascending, got %v %v %v", c.B1, c.B2, c.B3)
	}
	if c.Hyst < 0 {
		return fmt.Errorf("adapt: negative hysteresis %v", c.Hyst)
	}
	return nil
}

// Decision is the engine's choice for one round.
type Decision struct {
	Round     int
	Direction Direction
	Rep       grb.Rep
	// Density is the measured frontier density the decision was made at.
	Density float64
}

// Engine decides direction and representation per round for one run. It
// is single-goroutine like the round loops that drive it; a fresh engine
// is built per run so no state leaks between measurements.
type Engine struct {
	cfg Config
	n   int

	round   int
	decided bool
	dir     Direction
	rep     grb.Rep

	dirSwitches int
	repSwitches int
}

// NewEngine returns an engine for vectors of dimension n. Invalid
// configs panic here rather than drifting: the round loops have no way
// to surface a config error mid-run.
func NewEngine(n int, cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, n: n, dir: Push, rep: grb.List}
}

// repFor maps a density to the ladder target, ignoring hysteresis.
func (c Config) repFor(density float64) grb.Rep {
	switch {
	case density < c.B1:
		return grb.List
	case density < c.B2:
		return grb.Sorted
	case density < c.B3:
		return grb.Bitmap
	}
	return grb.Dense
}

// band returns the [lo, hi) density band of a representation.
func (c Config) band(r grb.Rep) (lo, hi float64) {
	switch r {
	case grb.List:
		return 0, c.B1
	case grb.Sorted:
		return c.B1, c.B2
	case grb.Bitmap:
		return c.B2, c.B3
	}
	return c.B3, 1
}

// Decide advances to the next round and returns the decision for a
// frontier of nvals explicit entries. It also emits the decision spans
// when a trace is installed.
func (e *Engine) Decide(nvals int) Decision {
	e.round++
	density := 0.0
	if e.n > 0 {
		density = float64(nvals) / float64(e.n)
	}

	// Direction: α/β thresholds with a keep-previous band between them.
	// The first decision seeds the state without counting as a switch.
	dir := e.dir
	switch {
	case !e.decided:
		if density >= e.cfg.Alpha {
			dir = Pull
		} else {
			dir = Push
		}
	case density >= e.cfg.Alpha:
		dir = Pull
	case density <= e.cfg.Beta:
		dir = Push
	}

	// Representation: move to the ladder target only once the density
	// leaves the current band widened by the hysteresis fraction.
	rep := e.rep
	if target := e.cfg.repFor(density); target != rep || !e.decided {
		if !e.decided {
			rep = target
		} else {
			lo, hi := e.cfg.band(e.rep)
			if density < lo*(1-e.cfg.Hyst) || density >= hi*(1+e.cfg.Hyst) {
				rep = target
			}
		}
	}

	if e.decided {
		if dir != e.dir {
			e.dirSwitches++
		}
		if rep != e.rep {
			e.repSwitches++
		}
	}
	e.dir, e.rep, e.decided = dir, rep, true

	if f := e.cfg.ForceDirection; f != nil {
		dir = *f
	}
	if f := e.cfg.ForceRep; f != nil {
		rep = *f
	}

	e.emit("adapt.direction."+dir.String(), nvals, density)
	e.emit("adapt.rep."+rep.String(), nvals, density)
	return Decision{Round: e.round, Direction: dir, Rep: rep, Density: density}
}

// emit records one decision span: NNZIn is the frontier nvals, NNZOut
// the vector dimension, Items the density in parts per million.
func (e *Engine) emit(op string, nvals int, density float64) {
	sp := trace.Begin(trace.CatAdapt, op)
	if sp.Enabled() {
		sp.Round = e.round
		sp.NNZIn = int64(nvals)
		sp.NNZOut = int64(e.n)
		sp.Items = int64(density * 1e6)
	}
	sp.End()
}

// Hint translates a direction into the kernel hint the grb descriptor
// takes. Adaptive loops always force: letting the kernel's own density
// heuristic second-guess the engine would make the trace lie.
func (d Direction) Hint() grb.KernelHint {
	if d == Pull {
		return grb.HintPull
	}
	return grb.HintPush
}

// Rounds returns how many decisions the engine has made.
func (e *Engine) Rounds() int { return e.round }

// DirSwitches returns how many times the free-running direction changed
// after the first decision (forced overrides don't reset the counter —
// it tracks what the engine would do, which is what the hysteresis
// property tests bound).
func (e *Engine) DirSwitches() int { return e.dirSwitches }

// RepSwitches is DirSwitches for the representation ladder.
func (e *Engine) RepSwitches() int { return e.repSwitches }

// Direction returns the current free-running direction.
func (e *Engine) Direction() Direction { return e.dir }

// Rep returns the current free-running representation.
func (e *Engine) Rep() grb.Rep { return e.rep }
