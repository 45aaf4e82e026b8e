package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/service/metrics"
)

// RegistryConfig sizes a Registry.
type RegistryConfig struct {
	// Store persists datasets between processes; nil keeps everything
	// in-memory (suite graphs regenerate on every cold acquire).
	Store *Store
	// Budget bounds the bytes of resident graphs; <= 0 means unlimited.
	// When an acquire pushes residency past the budget, idle graphs are
	// evicted in LRU order — along with their gen build memos and
	// core.Prepare matrix forms, so eviction actually frees memory.
	Budget int64
}

// Registry is the in-memory side of the dataset subsystem: it hands out
// refcounted graph handles, loads lazily (resident hit -> disk hit ->
// generate-and-persist), and enforces a byte budget with LRU eviction.
// Suite graphs are seeded into the gen build memo on load so core.Prepare
// reuses the identical graph object; eviction reverses both that memo and
// the prepared matrix cache.
type Registry struct {
	store  *Store
	budget int64

	mu      sync.Mutex
	entries map[string]*regEntry
	inputs  map[string]*gen.Input // memoized external-dataset inputs
	bytes   int64
	clock   uint64

	hits      atomic.Int64 // acquires satisfied by a resident graph
	diskHits  atomic.Int64 // acquires satisfied by decoding a stored object
	misses    atomic.Int64 // acquires that had to generate
	evictions atomic.Int64
}

// regEntry tracks one resident (or loading) graph.
type regEntry struct {
	key      string
	name     string
	sc       gen.Scale
	external bool
	snapshot bool   // key is a SnapshotName (pinned epoch view)
	epoch    uint64 // snapshot entries: the pinned epoch

	ready chan struct{} // closed once g/err are set
	g     *graph.Graph
	err   error
	done  bool // set under Registry.mu when ready closes
	// baseEpoch is the store BaseEpoch of the object this graph decoded
	// from (external entries; 0 otherwise). Published before ready closes,
	// so snapshot materialization can read it after the wait without
	// re-consulting the (possibly since-compacted) manifest.
	baseEpoch uint64

	bytes    int64
	refs     int
	lastUsed uint64
}

// Handle is a refcounted lease on a resident graph. Release it when the run
// is over so the budget can evict the graph; Release is idempotent.
type Handle struct {
	g    *graph.Graph
	r    *Registry
	e    *regEntry
	once sync.Once
}

// Graph returns the leased graph (read-only, shared).
func (h *Handle) Graph() *graph.Graph { return h.g }

// Release returns the lease. After the last release an over-budget registry
// may evict the graph.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.r.mu.Lock()
		h.e.refs--
		h.e.lastUsed = h.r.tickLocked()
		h.r.evictLocked()
		h.r.mu.Unlock()
	})
}

// NewRegistry builds a registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{
		store:   cfg.Store,
		budget:  cfg.Budget,
		entries: map[string]*regEntry{},
		inputs:  map[string]*gen.Input{},
	}
}

// Budget returns the configured byte budget (<= 0 means unlimited).
func (r *Registry) Budget() int64 { return r.budget }

// Input resolves a graph name the way the serving layer needs it: suite
// names map to their generator Input, store dataset names to a synthetic
// external Input that loads from the store. Suite names win collisions, so
// a dataset named like a generator cannot shadow it.
func (r *Registry) Input(name string) (*gen.Input, error) {
	if in, err := gen.ByName(name); err == nil {
		return in, nil
	}
	r.mu.Lock()
	if in, ok := r.inputs[name]; ok {
		r.mu.Unlock()
		return in, nil
	}
	r.mu.Unlock()
	if base, epoch, ok := ParseSnapshotName(name); ok {
		if r.store == nil || !r.store.Has(base) {
			return nil, fmt.Errorf("store: snapshot %q: unknown base dataset %q", name, base)
		}
		be, _ := r.store.Lookup(base)
		in := gen.NewExternal(name, be.Weighted, func(gen.Scale) *graph.Graph {
			// Acquire seeds the build memo; this path only runs if a caller
			// bypassed the registry, so rebuild straight from the store.
			g, err := r.store.Snapshot(base, epoch)
			if err != nil {
				panic(fmt.Sprintf("store: snapshot %q must be resolved through Registry.Acquire: %v", name, err))
			}
			g.SortAdjacency()
			g.BuildIn()
			return g
		})
		r.mu.Lock()
		if prev, ok := r.inputs[name]; ok {
			in = prev
		} else {
			r.inputs[name] = in
		}
		r.mu.Unlock()
		return in, nil
	}
	if r.store == nil || !r.store.Has(name) {
		return nil, fmt.Errorf("store: unknown graph %q (not a suite name, not in the dataset store)", name)
	}
	e, _ := r.store.Lookup(name)
	in := gen.NewExternal(name, e.Weighted, func(gen.Scale) *graph.Graph {
		// Acquire seeds the gen build memo before any run starts, so this
		// only executes if a caller bypassed the registry entirely.
		g, _, err := r.store.Get(name)
		if err != nil {
			panic(fmt.Sprintf("store: external dataset %q must be resolved through Registry.Acquire: %v", name, err))
		}
		g.SortAdjacency()
		g.BuildIn()
		return g
	})
	r.mu.Lock()
	if prev, ok := r.inputs[name]; ok {
		in = prev
	} else {
		r.inputs[name] = in
	}
	r.mu.Unlock()
	return in, nil
}

// Acquire leases the named graph at the given scale, loading it if needed:
// a resident graph is a hit; a stored object decodes as a disk hit; a suite
// name absent everywhere generates and (when a store is attached) persists,
// so the next process finds it on disk. External datasets ignore scale for
// loading but are still seeded into the (name, scale) caches the harness
// keys by.
func (r *Registry) Acquire(name string, sc gen.Scale) (*Handle, error) {
	var in *gen.Input
	external, snapshot := false, false
	var snapEpoch uint64
	if i, err := gen.ByName(name); err == nil {
		in = i
	} else if base, epoch, ok := ParseSnapshotName(name); ok {
		if r.store == nil || !r.store.Has(base) {
			return nil, fmt.Errorf("store: snapshot %q: unknown base dataset %q", name, base)
		}
		external, snapshot, snapEpoch = true, true, epoch
	} else if r.store != nil && r.store.Has(name) {
		external = true
	} else {
		return nil, fmt.Errorf("store: unknown graph %q (not a suite name, not in the dataset store)", name)
	}
	key := name
	if !external {
		key = fmt.Sprintf("%s@%s", name, sc)
	}

	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		e.refs++
		e.lastUsed = r.tickLocked()
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		r.hits.Add(1)
		return &Handle{g: e.g, r: r, e: e}, nil
	}
	e := &regEntry{
		key: key, name: name, sc: sc, external: external,
		snapshot: snapshot, epoch: snapEpoch,
		ready: make(chan struct{}), refs: 1, lastUsed: r.tickLocked(),
	}
	r.entries[key] = e
	r.mu.Unlock()

	var g *graph.Graph
	var fromDisk bool
	var baseEpoch uint64
	var err error
	if snapshot {
		base, _, _ := ParseSnapshotName(name)
		g, fromDisk, err = r.loadSnapshot(base, snapEpoch, sc, name)
		baseEpoch = snapEpoch
	} else {
		g, fromDisk, baseEpoch, err = r.load(in, name, key, sc, external)
	}

	r.mu.Lock()
	e.g, e.err = g, err
	e.baseEpoch = baseEpoch
	e.done = true
	if err != nil {
		// Failed loads leave the table so the next acquire retries; waiters
		// already attached observe e.err via the closed ready channel.
		delete(r.entries, key)
		close(e.ready)
		r.mu.Unlock()
		return nil, err
	}
	e.bytes = int64(g.SizeBytes())
	r.bytes += e.bytes
	close(e.ready)
	if fromDisk {
		r.diskHits.Add(1)
	} else {
		r.misses.Add(1)
	}
	r.evictLocked()
	r.mu.Unlock()
	return &Handle{g: g, r: r, e: e}, nil
}

// load materializes a graph outside the registry lock. For external
// datasets the manifest is consulted before the object is decoded: if a
// concurrent compaction swaps the object in between, the recorded
// baseEpoch is older than the bytes, which only makes later snapshot
// materialization fall back to disk (never silently skip batches).
func (r *Registry) load(in *gen.Input, name, key string, sc gen.Scale, external bool) (*graph.Graph, bool, uint64, error) {
	if external {
		e, _ := r.store.Lookup(name)
		g, _, err := r.store.Get(name)
		if err != nil {
			return nil, false, 0, err
		}
		g.SortAdjacency()
		g.BuildIn()
		// Seed the build memo so core.Prepare(in, sc) reuses this object.
		g = gen.SetCached(name, sc, g)
		return g, true, e.BaseEpoch, nil
	}
	if r.store != nil {
		if g, _, err := r.store.Get(key); err == nil {
			g.SortAdjacency()
			g.BuildIn()
			g = gen.SetCached(name, sc, g)
			return g, true, 0, nil
		} else if !errors.Is(err, ErrNotFound) {
			return nil, false, 0, err
		}
	}
	g := in.Build(sc) // generates and memoizes in gen
	if r.store != nil {
		meta := map[string]string{
			"source":    "gen",
			"graph":     name,
			"scale":     sc.String(),
			"archetype": in.Archetype,
		}
		if _, err := r.store.Put(key, g, meta); err != nil {
			return nil, false, 0, fmt.Errorf("store: persisting generated %q: %w", key, err)
		}
	}
	return g, false, 0, nil
}

// loadSnapshot materializes one epoch-pinned view of a mutating dataset.
// The base is acquired through the registry first, which (a) reuses a
// resident base instead of re-decoding it and (b) holds a lease so the
// budget cannot evict the base mid-materialization. Deltas are applied on
// top of the leased base; if the log range predates the base object's
// epoch (a compaction won a race, or the epoch is historical), the
// snapshot rebuilds from disk instead.
func (r *Registry) loadSnapshot(base string, epoch uint64, sc gen.Scale, snapName string) (*graph.Graph, bool, error) {
	bh, err := r.Acquire(base, sc)
	if err != nil {
		return nil, false, err
	}
	defer bh.Release()
	var g *graph.Graph
	batches, err := r.store.Deltas(base, bh.e.baseEpoch, epoch)
	switch {
	case err == nil && len(batches) == 0:
		// The snapshot IS the base; share the resident object. (Its bytes
		// are charged to both entries — over-counting, never under.)
		g = bh.Graph()
	case err == nil:
		g = MaterializeDeltas(bh.Graph(), batches) // rows come out sorted
		g.BuildIn()
	case errors.Is(err, ErrEpochCompacted):
		g, err = r.store.Snapshot(base, epoch)
		if err != nil {
			return nil, false, err
		}
		g.SortAdjacency()
		g.BuildIn()
	default:
		return nil, false, err
	}
	g = gen.SetCached(snapName, sc, g)
	return g, true, nil
}

// tickLocked advances the LRU clock. Callers hold r.mu.
func (r *Registry) tickLocked() uint64 {
	r.clock++
	return r.clock
}

// evictLocked drops idle graphs in LRU order until residency fits the
// budget. Each eviction also drops the gen build memo and the core.Prepare
// entry for the same (name, scale); referenced graphs are never evicted, so
// a busy registry may run over budget until runs finish. Callers hold r.mu.
func (r *Registry) evictLocked() {
	if r.budget <= 0 {
		return
	}
	for r.bytes > r.budget {
		var victim *regEntry
		for _, e := range r.entries {
			if e.refs > 0 || !e.done {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.key)
		r.bytes -= victim.bytes
		r.evictions.Add(1)
		gen.DropCached(victim.name, victim.sc)
		core.DropPrepared(victim.name, victim.sc)
	}
}

// RegistryStats is a point-in-time view of the registry's counters.
type RegistryStats struct {
	Hits           int64 `json:"hits"`
	DiskHits       int64 `json:"diskHits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	ResidentBytes  int64 `json:"residentBytes"`
	ResidentGraphs int   `json:"residentGraphs"`
	BudgetBytes    int64 `json:"budgetBytes"`
}

// Stats snapshots the registry counters and residency.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	bytes, n := r.bytes, len(r.entries)
	r.mu.Unlock()
	return RegistryStats{
		Hits:           r.hits.Load(),
		DiskHits:       r.diskHits.Load(),
		Misses:         r.misses.Load(),
		Evictions:      r.evictions.Load(),
		ResidentBytes:  bytes,
		ResidentGraphs: n,
		BudgetBytes:    r.budget,
	}
}

// RegisterMetrics exposes the registry's counters and residency gauges in a
// metrics registry (graphd's /metrics).
func (r *Registry) RegisterMetrics(m *metrics.Registry) {
	m.Gauge("store_hits", r.hits.Load)
	m.Gauge("store_disk_hits", r.diskHits.Load)
	m.Gauge("store_misses", r.misses.Load)
	m.Gauge("store_evictions", r.evictions.Load)
	m.Gauge("store_budget_bytes", func() int64 { return r.budget })
	m.Gauge("store_resident_bytes", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.bytes
	})
	m.Gauge("store_resident_graphs", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(len(r.entries))
	})
}

// SnapshotName renders the registry key for an epoch-pinned view of a
// mutating dataset. The '#' is reserved by validName, so a snapshot name
// can never collide with a stored dataset or suite graph.
func SnapshotName(base string, epoch uint64) string {
	return fmt.Sprintf("%s#e%d", base, epoch)
}

// ParseSnapshotName splits a SnapshotName back into (base, epoch). ok is
// false for anything that is not exactly base + "#e" + decimal digits.
func ParseSnapshotName(name string) (base string, epoch uint64, ok bool) {
	i := strings.LastIndex(name, "#e")
	if i <= 0 || i+2 >= len(name) {
		return "", 0, false
	}
	epoch, err := strconv.ParseUint(name[i+2:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return name[:i], epoch, true
}

// Append appends one mutation batch to a stored dataset's delta log and
// returns the epoch it committed as. Resident graphs are untouched: the
// base object's bytes have not changed, and epoch-pinned snapshots are
// immutable by construction.
func (r *Registry) Append(name string, ops []DeltaOp) (uint64, error) {
	if r.store == nil {
		return 0, errors.New("store: registry has no backing store; streaming ingest disabled")
	}
	if _, _, ok := ParseSnapshotName(name); ok {
		return 0, fmt.Errorf("store: cannot append to snapshot %q; append to its base dataset", name)
	}
	return r.store.AppendDelta(name, ops)
}

// Epoch returns a stored dataset's current top epoch.
func (r *Registry) Epoch(name string) (uint64, error) {
	if r.store == nil {
		return 0, errors.New("store: registry has no backing store")
	}
	return r.store.Epoch(name)
}

// Lookup exposes the backing store's manifest entry for a dataset.
func (r *Registry) Lookup(name string) (Entry, bool) {
	if r.store == nil {
		return Entry{}, false
	}
	return r.store.Lookup(name)
}

// Compact folds a dataset's pending deltas into a fresh base object, then
// invalidates the registry's resident view of the bare name: an idle
// resident base is dropped (with its gen/core caches) so the next acquire
// decodes the new object; a leased one is re-keyed to an unreachable
// tombstone so existing handles stay valid while future acquires miss.
// Epoch-pinned snapshot entries stay resident untouched — their logical
// content is compaction-invariant.
func (r *Registry) Compact(name string) (Entry, error) {
	if r.store == nil {
		return Entry{}, errors.New("store: registry has no backing store")
	}
	if _, _, ok := ParseSnapshotName(name); ok {
		return Entry{}, fmt.Errorf("store: cannot compact snapshot %q; compact its base dataset", name)
	}
	ne, err := r.store.Compact(name)
	if err != nil {
		return Entry{}, err
	}
	r.mu.Lock()
	if e, ok := r.entries[name]; ok && e.done {
		if e.refs == 0 {
			delete(r.entries, name)
			r.bytes -= e.bytes
			gen.DropCached(e.name, e.sc)
			core.DropPrepared(e.name, e.sc)
		} else {
			// Live leases keep the old object; hide it from future acquires.
			stale := fmt.Sprintf("%s#stale%d", name, r.tickLocked())
			delete(r.entries, name)
			e.key = stale
			r.entries[stale] = e
			gen.DropCached(e.name, e.sc)
			core.DropPrepared(e.name, e.sc)
		}
	}
	r.mu.Unlock()
	return ne, nil
}

// MutationView builds the core-facing view of a dataset's mutation lineage
// for incremental runs: deltas resolve through the store's log, classified
// to net adds/deletes. Returns nil when the registry has no backing store.
func (r *Registry) MutationView(base string, epoch uint64) *core.MutationView {
	if r.store == nil {
		return nil
	}
	return &core.MutationView{
		Base:  base,
		Epoch: epoch,
		Deltas: func(from, to uint64) ([]graph.Edge, []graph.Edge, bool) {
			batches, err := r.store.Deltas(base, from, to)
			if err != nil {
				return nil, nil, false
			}
			adds, dels := NetDeltas(batches)
			return adds, dels, true
		},
	}
}

// NetDeltas reduces a batch sequence to its net effect per edge: the last
// op on each (src, dst) wins. The classification is sound rather than
// minimal — an upsert matching the pre-existing edge still reports as an
// add (a superset of the true dirty set), and an add-then-delete of a
// previously absent edge still reports as a delete (forcing a from-scratch
// fallback); both err toward recomputation, never toward staleness.
func NetDeltas(batches []DeltaBatch) (adds, dels []graph.Edge) {
	last := map[uint64]DeltaOp{}
	for _, b := range batches {
		for _, op := range b.Ops {
			last[uint64(op.Src)<<32|uint64(op.Dst)] = op
		}
	}
	for _, op := range last {
		if op.Del {
			dels = append(dels, graph.Edge{Src: op.Src, Dst: op.Dst})
		} else {
			adds = append(adds, graph.Edge{Src: op.Src, Dst: op.Dst, W: op.W})
		}
	}
	graph.SortEdges(adds)
	graph.SortEdges(dels)
	return adds, dels
}

// DatasetInfo is one row of the /v1/datasets listing: the on-disk entry (if
// any) merged with the registry's residency view.
type DatasetInfo struct {
	Name      string `json:"name"`
	Source    string `json:"source"` // "store" or "generated"
	DiskBytes int64  `json:"diskBytes,omitempty"`
	Nodes     uint32 `json:"nodes,omitempty"`
	Edges     uint64 `json:"edges,omitempty"`
	Weighted  bool   `json:"weighted"`
	Resident  bool   `json:"resident"`
	Bytes     int64  `json:"residentBytes,omitempty"`
	Refs      int    `json:"refs,omitempty"`
}

// Datasets lists every stored dataset plus any resident generated graph not
// yet persisted, sorted by name.
func (r *Registry) Datasets() []DatasetInfo {
	byName := map[string]*DatasetInfo{}
	if r.store != nil {
		for _, e := range r.store.List() {
			source := "store"
			if e.Meta["source"] == "gen" {
				source = "generated"
			}
			byName[e.Name] = &DatasetInfo{
				Name: e.Name, Source: source, DiskBytes: e.Bytes,
				Nodes: e.Nodes, Edges: e.Edges, Weighted: e.Weighted,
			}
		}
	}
	r.mu.Lock()
	for _, e := range r.entries {
		d, ok := byName[e.key]
		if !ok {
			d = &DatasetInfo{Name: e.key, Source: "generated"}
			byName[e.key] = d
		}
		if e.done && e.err == nil {
			d.Resident = true
			d.Bytes = e.bytes
			d.Refs = e.refs
			d.Nodes = e.g.NumNodes
			d.Edges = e.g.NumEdges()
			d.Weighted = e.g.Weighted()
		}
	}
	r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(byName))
	for _, d := range byName {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
