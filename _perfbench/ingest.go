package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/service"
	"graphstudy/internal/store"
)

// The ingest workload writes beside reads on graphd over loopback: a closed
// loop with one writer connection and one reader connection. Each cycle
// posts a seeded batch of edge adds, runs epoch-pinned GB incremental bfs,
// cc and pr on the new epoch, checks each answer against a from-scratch run
// of the same formulation on the same snapshot, and every ingestCompactK
// epochs compacts the log.
const (
	ingestBatch        = 32        // edge adds per batch
	ingestCompactK     = 8         // compact every K epochs
	ingestBudget       = "8MB"     // graphd -mem-budget: bounds resident snapshots
	ingestTracedCycles = 64        // cycles in the traced pass
	ingestTimeout      = time.Hour // never hit; runs take milliseconds
)

func ingestDef(seed uint64) inputDef {
	return rmatDef(fmt.Sprintf("ingest-%d", seed), 12, 16, splitmix64(seed^0x1A9E))
}

// incrApps are the incremental reads of a cycle, with the variant of the
// from-scratch run whose digest each must equal.
var incrApps = []struct {
	app    core.App
	oracle core.Variant
}{
	{core.BFS, core.VDefault},
	{core.CC, core.VDefault},
	{core.PR, core.VGBRes}, // incremental pr patches the residual formulation
}

// batches returns the seeded edge-add batch for each cycle.
type batcher struct {
	r *rng
	n uint32
}

func (b *batcher) next() []service.EdgeOp {
	ops := make([]service.EdgeOp, ingestBatch)
	for i := range ops {
		ops[i] = service.EdgeOp{
			Src: uint32(b.r.intn(int(b.n))),
			Dst: uint32(b.r.intn(int(b.n))),
			W:   uint32(1 + b.r.intn(255)),
		}
	}
	return ops
}

func runIngest(cfg config) (*report, error) {
	rep := newReport()
	def := ingestDef(cfg.seed)
	if cfg.trace {
		return rep, ingestTraced(rep, cfg, def)
	}

	var setups []float64
	var gd *graphd
	var in prepared
	dir := filepath.Join(cfg.workdir, "ingest")
	for rnd := 0; rnd < setupRounds; rnd++ {
		if gd != nil {
			gd.stop()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ins, _ := generate([]inputDef{def})
		in = ins[0]
		if _, err := fillStore(dir, ins); err != nil {
			return nil, err
		}
		var err error
		gd, err = startGraphd(cfg.graphd, dir,
			"-workers", "1", "-threads", strconv.Itoa(cfg.nproc), "-mem-budget", ingestBudget)
		if err != nil {
			return nil, err
		}
		c := newClient(gd.base)
		zero := uint64(0)
		_, err = c.run(service.RunRequest{App: "bfs", System: "GB", Graph: def.name, Scale: scale.String(), Epoch: &zero})
		c.close()
		if err != nil {
			gd.stop()
			return nil, fmt.Errorf("warming %s: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer gd.stop()

	writer, reader := newClient(gd.base), newClient(gd.base)
	defer writer.close()
	defer reader.close()
	b := &batcher{r: newRNG(splitmix64(cfg.seed ^ 0xBA7C)), n: uint32(in.in.Build(scale).NumNodes)}
	var ackMs, freshMs, cycleSec []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	// A cycle's time leaves out its from-scratch oracle runs, so ops_per_s
	// follows the write and the warm incremental reads. The loop stops at
	// the first failed operation: the run is then incorrect, and no failed
	// or partial cycle enters a sample.
	for time.Now().Before(deadline) && rep.correct() {
		var ack service.IngestResponse
		t0 := time.Now()
		if err := writer.post("/v1/graphs/"+def.name+"/edges", service.IngestRequest{Ops: b.next()}, &ack); err != nil {
			rep.fail("ingest: %v", err)
			break
		}
		ack1 := time.Since(t0)
		rep.op(true)
		epoch := ack.Epoch
		var fresh, oracle time.Duration
		for i, a := range incrApps {
			req := service.RunRequest{App: a.app.String(), System: "GB", Variant: string(core.VIncremental),
				Graph: def.name, Scale: scale.String(), Epoch: &epoch}
			t1 := time.Now()
			got, err := reader.run(req)
			if err != nil {
				rep.fail("%v", err)
				break
			}
			if i == 0 {
				fresh = time.Since(t1)
			}
			req.Variant = string(a.oracle)
			t1 = time.Now()
			want, err := reader.run(req)
			oracle += time.Since(t1)
			if err != nil {
				rep.fail("oracle: %v", err)
				break
			}
			if got.Digest != want.Digest {
				rep.mismatch("ingest %s incremental at epoch %d: digest %s, from-scratch %s %s", a.app, epoch, got.Digest, a.oracle, want.Digest)
				break
			}
			rep.op(true)
		}
		if rep.correct() && epoch%ingestCompactK == 0 {
			if err := writer.post("/v1/graphs/"+def.name+"/compact", struct{}{}, nil); err != nil {
				rep.fail("compact: %v", err)
			} else {
				rep.op(true)
			}
		}
		if !rep.correct() {
			break
		}
		ackMs = append(ackMs, ms(ack1))
		freshMs = append(freshMs, ms(fresh))
		cycleSec = append(cycleSec, (time.Since(t0) - oracle).Seconds())
	}
	rss := gd.peakRSSMB()
	prepareAll(rep, []prepared{in})

	fp, fv := percentileAt(freshMs, 90)
	note("ingest_p50_ms %.4f ms (edge-batch acknowledgement, n=%d)", median(ackMs), len(ackMs))
	note("fresh_p50_ms %.4f ms (first query at a new epoch, n=%d)", median(freshMs), len(freshMs))
	note("fresh_p90_ms %.4f ms (p%g, n=%d, %d samples beyond)", fv, fp, len(freshMs), int(float64(len(freshMs))*(1-fp/100)))
	note("ingest: %d cycles, median cycle %.4f s without oracle runs, batch %d adds, compact every %d epochs", len(cycleSec), median(cycleSec), ingestBatch, ingestCompactK)

	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("p50_ms", median(freshMs), "ms")
	if len(cycleSec) > 0 {
		rep.set("ops_per_s", 1/median(cycleSec), "1/s")
	}
	return rep, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil // a file vanishing mid-walk only shortens the sum
	})
	return n
}

// ingestTraced repeats the cycle in-process for a fixed number of cycles:
// store.Registry.Append, Acquire of the new snapshot and core.Prepare, each
// inside the benchmark's own timing span; then, per app, the incremental
// read submitted through service.Server.Submit twice at once (the second
// attaches to the first), once more after it is done (a result-cache hit),
// and the from-scratch check; and Registry.Compact every K epochs. The
// server runs one worker, as graphd does in the untraced pass, with a
// runner that traces every incremental run.
func ingestTraced(rep *report, cfg config, def inputDef) error {
	setLayerDefaults(rep)
	dir := filepath.Join(cfg.workdir, "ingest-traced")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	ins, genT := generate([]inputDef{def})
	st, err := fillStore(dir, ins)
	if err != nil {
		return err
	}
	budget, err := store.ParseBytes(ingestBudget)
	if err != nil {
		return err
	}
	reg := store.NewRegistry(store.RegistryConfig{Store: st, Budget: budget})

	// The runner is called only by the server's one worker; the main
	// goroutine reads what it records after waiting on the jobs.
	runs := &tracedRuns{rep: rep}
	var incrMs, alloc []float64
	runner := func(ctx context.Context, spec core.RunSpec) core.Result {
		if spec.Variant != core.VIncremental {
			return core.RunCtx(ctx, spec)
		}
		tr := newRunTrace()
		spec.Trace = tr
		res := core.RunCtx(ctx, spec)
		if res.Outcome == core.OK {
			incrMs = append(incrMs, ms(res.Elapsed))
			alloc = append(alloc, float64(res.AllocBytes)/(1<<20))
			runs.add(fmt.Sprintf("ingest %s on %s", spec.App, spec.Input.Name), tr, res.Elapsed)
		}
		res.Spec.Trace, res.Trace = nil, nil // cached results must not pin traces
		return res
	}
	srv := service.New(service.Config{
		Workers: 1, QueueDepth: 8, CacheSize: 128,
		DefaultThreads: cfg.nproc, Registry: reg, Runner: runner,
	})
	defer srv.Close()
	is := &ingestServer{rep: rep, srv: srv}

	b := &batcher{r: newRNG(splitmix64(cfg.seed ^ 0xBA7C)), n: uint32(ins[0].in.Build(scale).NumNodes)}
	var appendMs, snapMs, prepMs, compactMs, logPerOp []float64
	var last *gen.Input
	for c := 0; c < ingestTracedCycles && rep.correct(); c++ {
		ops := b.next()
		dops := make([]store.DeltaOp, len(ops))
		for i, op := range ops {
			dops[i] = store.DeltaOp{Src: op.Src, Dst: op.Dst, W: op.W}
		}
		before := dirBytes(dir)
		t0 := time.Now()
		epoch, err := reg.Append(def.name, dops)
		if err != nil {
			return err
		}
		appendMs = append(appendMs, ms(time.Since(t0)))
		logPerOp = append(logPerOp, float64(dirBytes(dir)-before)/float64(len(ops)))
		rep.op(true)

		snap := store.SnapshotName(def.name, epoch)
		t0 = time.Now()
		h, err := reg.Acquire(snap, scale)
		if err != nil {
			return err
		}
		snapMs = append(snapMs, ms(time.Since(t0)))
		in, err := reg.Input(snap)
		if err != nil {
			h.Release()
			return err
		}
		t0 = time.Now()
		core.Prepare(in, scale)
		prepMs = append(prepMs, ms(time.Since(t0)))
		for _, a := range incrApps {
			incr := core.RunSpec{App: a.app, System: core.GB, Variant: core.VIncremental, Input: in, Scale: scale,
				Threads: cfg.nproc, Timeout: ingestTimeout, Mutation: reg.MutationView(def.name, epoch)}
			if !is.reads(incr, a.oracle) {
				break
			}
		}
		h.Release()
		last = in
		if epoch%ingestCompactK == 0 {
			t0 = time.Now()
			if _, err := reg.Compact(def.name); err != nil {
				return err
			}
			compactMs = append(compactMs, ms(time.Since(t0)))
			rep.op(true)
		}
	}
	stats := reg.Stats()
	m := srv.Metrics()
	hits, misses := m.Counter("cache_hits").Value(), m.Counter("cache_misses").Value()
	prepareAll(rep, ins)

	runs.report()
	setLayer(rep, "gen.build_s", genT.Seconds())
	setLayer(rep, "core.prepare_ms", median(prepMs))
	setLayer(rep, "core.alloc_mb", median(alloc))
	setLayer(rep, "store.append_ms", median(appendMs))
	setLayer(rep, "store.snapshot_ms", median(snapMs))
	setLayer(rep, "store.compact_ms", median(compactMs))
	setLayer(rep, "store.log_bytes_per_op", median(logPerOp))
	if n := stats.Hits + stats.DiskHits + stats.Misses; n > 0 {
		setLayer(rep, "store.registry_hit_ratio", float64(stats.Hits)/float64(n))
	}
	setLayer(rep, "service.overhead_hit_ms", median(is.hitMs))
	setLayer(rep, "service.queue_wait_ms", median(is.waitMs))
	if hits+misses > 0 {
		setLayer(rep, "service.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	setLayer(rep, "service.dedup_hits", float64(m.Counter("dedup_hits").Value()))
	setLayer(rep, "service.queue_rejects", float64(m.Counter("queue_rejects").Value()))
	setLayer(rep, "delta.incr_run_ms", median(incrMs))
	var probe []core.RunSpec
	for _, a := range incrApps {
		probe = append(probe, core.RunSpec{App: a.app, System: core.GB, Variant: a.oracle, Input: last, Scale: scale, Threads: cfg.nproc, Timeout: ingestTimeout})
	}
	setLayer(rep, "trace.overhead_pct", overheadProbe(probe))
	note("traced ingest: %d incremental runs, %d fallbacks, %d compactions; service: %d cache hits (n=%d hit latencies), %d misses (n=%d queue waits), %d dedup hits",
		len(incrMs), runs.agg.fallbacks, len(compactMs), hits, len(is.hitMs), misses, len(is.waitMs), m.Counter("dedup_hits").Value())
	return nil
}

// ingestServer is the in-process service of the traced ingest pass, with
// the service-layer timings it has recorded.
type ingestServer struct {
	rep           *report
	srv           *service.Server
	hitMs, waitMs []float64
}

// await waits for a submitted job; a rejected or failed job counts as a
// failed operation.
func (s *ingestServer) await(job *service.Job, err error, label string) (res core.Result, hit, ok bool) {
	if err != nil {
		s.rep.fail("%s: %v", label, err)
		return res, false, false
	}
	<-job.Done()
	res, hit = job.Result()
	if res.Outcome != core.OK {
		s.rep.fail("%s: outcome %v: %v", label, res.Outcome, res.Err)
		return res, hit, false
	}
	return res, hit, true
}

// reads is one app's reads in a traced ingest cycle: the incremental spec
// submitted twice at once, then once more after it is done, then the
// from-scratch oracle, whose digest every answer must equal. It records
// the Submit-to-done latency of cache hits and, on misses, that latency
// less the run's Elapsed (queue wait and service overhead). It returns
// false once an operation has failed.
func (s *ingestServer) reads(incr core.RunSpec, oracle core.Variant) bool {
	label := fmt.Sprintf("traced ingest %s on %s", incr.App, incr.Input.Name)
	t0 := time.Now()
	first, err := s.srv.Submit(incr)
	twin, twinErr := s.srv.Submit(incr) // attaches to first while it is in flight
	res, hit, ok := s.await(first, err, label)
	if ok && !hit {
		s.waitMs = append(s.waitMs, ms(time.Since(t0)-res.Elapsed))
	}
	twinRes, _, twinOK := s.await(twin, twinErr, label+" (attached)")
	if !ok || !twinOK {
		return false
	}

	t0 = time.Now()
	job, err := s.srv.Submit(incr)
	again, hit, ok := s.await(job, err, label+" (repeated)")
	if !ok {
		return false
	}
	if hit {
		s.hitMs = append(s.hitMs, ms(time.Since(t0)))
	}

	spec := incr
	spec.Variant, spec.Mutation = oracle, nil
	job, err = s.srv.Submit(spec)
	want, _, ok := s.await(job, err, label+" (from scratch)")
	if !ok {
		return false
	}
	for _, r := range []core.Result{res, twinRes, again} {
		if r.Check != want.Check {
			s.rep.mismatch("%s: incremental digest %x, from-scratch %s %x", label, r.Check, oracle, want.Check)
			return false
		}
		s.rep.op(true)
	}
	s.rep.op(true)
	return true
}

// fillStore imports every generated graph into a dataset store at dir.
func fillStore(dir string, ins []prepared) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		if _, err := st.Put(in.def.name, in.in.Build(scale), map[string]string{"source": "perfbench"}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// prepareAll preprocesses every input in-process (for shape checks) after
// the measured phases.
func prepareAll(rep *report, ins []prepared) {
	for i := range ins {
		ins[i].p = core.Prepare(ins[i].in, scale)
	}
	checkShapes(rep, ins)
}

// overheadProbe runs the specs untraced and traced alternately, three
// rounds, and returns the traced slowdown of the summed medians in percent.
func overheadProbe(specs []core.RunSpec) float64 {
	ctx := context.Background()
	var plain, traced float64
	for _, spec := range specs {
		var u, t []float64
		for r := 0; r < 3; r++ {
			u = append(u, ms(core.RunCtx(ctx, spec).Elapsed))
			ts := spec
			ts.Trace = newRunTrace()
			t = append(t, ms(core.RunCtx(ctx, ts).Elapsed))
		}
		plain += median(u)
		traced += median(t)
	}
	if plain == 0 {
		return 0
	}
	return (traced/plain - 1) * 100
}
