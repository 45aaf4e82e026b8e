package core

import (
	"sync"
	"sync/atomic"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/lonestar"
)

// Prepared bundles every preprocessed form of one input graph that any
// system might need. Preparation cost is excluded from reported runtimes,
// matching the study ("runtimes do not include graph loading and
// preprocessing"). G and Src exist from construction; every other form is
// built once, on first use, by its accessor, and is read-only afterwards.
// A cell's bind (see cells) fetches exactly the forms the cell reads before
// RunCtx starts the clock, so a form is never built inside the timed region
// — and a run that needs only the base graph or one matrix never pays for
// the rest (symmetrization, the degree-sorted relabel, the other six
// matrices). This is LAGraph's model of cached graph properties, computed
// on demand rather than up front.
type Prepared struct {
	In  *gen.Input
	Sc  gen.Scale
	G   *graph.Graph // base directed weighted graph, sorted adjacency, CSC built
	Src uint32       // study source: max out-degree vertex (0 for roads)

	// Undirected forms for cc/tc/ktruss.
	sym       form[*graph.Graph] // symmetrized, sorted, CSC built
	symSorted form[*graph.Graph] // Sym relabeled by decreasing degree, sorted

	// Matrix forms for the LAGraph side.
	aBool   form[*grb.Matrix[bool]]    // pattern of G (bfs), CSC built
	aFloat  form[*grb.Matrix[float64]] // 1.0 per edge of G (pr), CSC built
	aW32    form[*grb.Matrix[uint32]]  // weights of G (sssp, incremental bfs)
	aW64    form[*grb.Matrix[uint64]]  // 64-bit weights (sssp on eukarya)
	aSymU32 form[*grb.Matrix[uint32]]  // pattern of Sym as uint32 (cc FastSV)
	aSymInt form[*grb.Matrix[int64]]   // pattern of Sym as 1s (tc gb, ktruss)
	aSrtInt form[*grb.Matrix[int64]]   // pattern of SymSorted (tc gb-sort/gb-ll)

	builds atomic.Int32 // forms built so far; tests check none is built mid-run
}

// form is one lazily built preprocessed form.
type form[T any] struct {
	once sync.Once
	v    T
}

// get returns the form, building it on the first call.
func (f *form[T]) get(p *Prepared, build func() T) T {
	f.once.Do(func() {
		f.v = build()
		p.builds.Add(1)
	})
	return f.v
}

// Sym is the undirected closure of G, sorted, with CSC built.
func (p *Prepared) Sym() *graph.Graph {
	return p.sym.get(p, func() *graph.Graph {
		sym := p.G.Symmetrize()
		sym.BuildIn()
		return sym
	})
}

// SymSorted is Sym relabeled by decreasing degree, sorted.
func (p *Prepared) SymSorted() *graph.Graph {
	return p.symSorted.get(p, func() *graph.Graph { return lonestar.SortByDegree(p.Sym()) })
}

// ABool is the pattern of G, with the CSC mirror the pull kernels use.
func (p *Prepared) ABool() *grb.Matrix[bool] {
	return p.aBool.get(p, func() *grb.Matrix[bool] {
		m := grb.BoolMatrixFromGraph(p.G)
		m.EnsureCSC()
		return m
	})
}

// AFloat holds 1.0 per edge of G, with the CSC mirror the pull kernels use.
func (p *Prepared) AFloat() *grb.Matrix[float64] {
	return p.aFloat.get(p, func() *grb.Matrix[float64] {
		m := grb.FloatMatrixFromGraph(p.G)
		m.EnsureCSC()
		return m
	})
}

// AW32 holds G's weights.
func (p *Prepared) AW32() *grb.Matrix[uint32] {
	return p.aW32.get(p, func() *grb.Matrix[uint32] { return grb.WeightMatrixFromGraph(p.G) })
}

// AW64 holds G's weights widened to 64 bits.
func (p *Prepared) AW64() *grb.Matrix[uint64] {
	return p.aW64.get(p, func() *grb.Matrix[uint64] {
		return grb.MatrixFromGraph(p.G, func(w uint32) uint64 { return uint64(w) })
	})
}

// ASymU32 is the pattern of Sym as uint32 1s.
func (p *Prepared) ASymU32() *grb.Matrix[uint32] {
	return p.aSymU32.get(p, func() *grb.Matrix[uint32] {
		return grb.MatrixFromGraph(p.Sym(), func(uint32) uint32 { return 1 })
	})
}

// ASymInt is the pattern of Sym as int64 1s.
func (p *Prepared) ASymInt() *grb.Matrix[int64] {
	return p.aSymInt.get(p, func() *grb.Matrix[int64] {
		return grb.MatrixFromGraph(p.Sym(), func(uint32) int64 { return 1 })
	})
}

// ASrtInt is the pattern of SymSorted as int64 1s.
func (p *Prepared) ASrtInt() *grb.Matrix[int64] {
	return p.aSrtInt.get(p, func() *grb.Matrix[int64] {
		return grb.MatrixFromGraph(p.SymSorted(), func(uint32) int64 { return 1 })
	})
}

var (
	prepMu    sync.Mutex
	prepCache = map[prepKey]*prepEntry{}
)

type prepKey struct {
	name string
	sc   gen.Scale
}

type prepEntry struct {
	once sync.Once
	p    *Prepared
}

// Prepare returns the cached prepared input at the given scale, building
// the base graph on first use. The other forms are built by their
// accessors when a run first needs them.
func Prepare(in *gen.Input, sc gen.Scale) *Prepared {
	key := prepKey{in.Name, sc}
	prepMu.Lock()
	e, ok := prepCache[key]
	if !ok {
		e = &prepEntry{}
		prepCache[key] = e
	}
	prepMu.Unlock()
	e.once.Do(func() {
		g := in.Build(sc)
		e.p = &Prepared{In: in, Sc: sc, G: g, Src: in.Source(g)}
	})
	return e.p
}

// DropPrepared evicts one prepared input so its matrix forms can be
// garbage-collected. It also drops the gen build memo for the same (name,
// scale): the memo holds the base graph the Prepared forms alias, so
// deleting only the prepCache entry would free nothing. The dataset
// registry's budget eviction and memory-bound sweeps both rely on this.
func DropPrepared(name string, sc gen.Scale) {
	prepMu.Lock()
	delete(prepCache, prepKey{name, sc})
	prepMu.Unlock()
	gen.DropCached(name, sc)
}

// PreparedCount reports how many prepared inputs are resident (tests and
// metrics).
func PreparedCount() int {
	prepMu.Lock()
	defer prepMu.Unlock()
	return len(prepCache)
}
