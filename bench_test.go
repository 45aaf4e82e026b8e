// Package graphstudy_test hosts the testing.B entry points that regenerate
// each table and figure of the study (one benchmark family per exhibit).
// They default to the test-scale inputs so `go test -bench=.` completes
// quickly; set GRAPHSTUDY_SCALE=bench for the full-size reproduction (or use
// cmd/gentables, which also renders the formatted tables).
package graphstudy_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"graphstudy/internal/bench"
	"graphstudy/internal/core"
	"graphstudy/internal/galois"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/lonestar"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

func benchScale() gen.Scale {
	if os.Getenv("GRAPHSTUDY_SCALE") == "bench" {
		return gen.ScaleBench
	}
	return gen.ScaleTest
}

func benchSpec(app core.App, sys core.System, v core.Variant, graphName string, threads int) core.RunSpec {
	in, err := gen.ByName(graphName)
	if err != nil {
		panic(err)
	}
	return core.RunSpec{
		App: app, System: sys, Variant: v, Input: in,
		Scale: benchScale(), Threads: threads, Timeout: 10 * time.Minute,
	}
}

func runSpec(b *testing.B, spec core.RunSpec) {
	b.Helper()
	core.Prepare(spec.Input, spec.Scale) // exclude preprocessing, like the study
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.Run(spec)
		if r.Outcome != core.OK {
			b.Fatalf("%v/%v/%s: %v (%v)", spec.App, spec.System, spec.Input.Name, r.Outcome, r.Err)
		}
	}
}

// BenchmarkTable1GraphSuite regenerates the input suite (Table I's subject).
func BenchmarkTable1GraphSuite(b *testing.B) {
	for _, in := range gen.Suite() {
		b.Run(in.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := in.Build(benchScale())
				if g.NumEdges() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkTable2 times every (app, system) pair of the runtime grid on each
// input, the cells of Table II.
func BenchmarkTable2(b *testing.B) {
	for _, app := range core.Apps() {
		for _, sys := range []core.System{core.SS, core.GB, core.LS} {
			for _, name := range gen.Names() {
				b.Run(fmt.Sprintf("%s/%s/%s", app, sys, name), func(b *testing.B) {
					runSpec(b, benchSpec(app, sys, core.VDefault, name, 4))
				})
			}
		}
	}
}

// BenchmarkTable3Memory reports allocations per run (Table III's subject:
// the matrix API's materialization shows up as allocated bytes).
func BenchmarkTable3Memory(b *testing.B) {
	for _, sys := range []core.System{core.SS, core.GB, core.LS} {
		for _, app := range []core.App{core.TC, core.KTruss, core.SSSP} {
			b.Run(fmt.Sprintf("%s/%s", app, sys), func(b *testing.B) {
				b.ReportAllocs()
				runSpec(b, benchSpec(app, sys, core.VDefault, "rmat22", 4))
			})
		}
	}
}

// BenchmarkTable4Counters runs the GB-vs-LS counter collection (Tables IV/V
// content) and reports instructions and DRAM accesses as custom metrics.
func BenchmarkTable4Counters(b *testing.B) {
	for _, sys := range []core.System{core.GB, core.LS} {
		for _, app := range core.Apps() {
			b.Run(fmt.Sprintf("%s/%s", app, sys), func(b *testing.B) {
				spec := benchSpec(app, sys, core.VDefault, "rmat22", 1)
				core.Prepare(spec.Input, spec.Scale)
				var last perfmodel.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					last = perfmodel.Collect(func() {
						if r := core.Run(spec); r.Outcome != core.OK {
							b.Fatal(r.Err)
						}
					})
				}
				b.ReportMetric(float64(last.Instructions), "instrs")
				b.ReportMetric(float64(last.DRAM), "dram-accs")
			})
		}
	}
}

// BenchmarkFigure2Scaling sweeps thread counts for GB and LS and reports the
// modeled critical-path time alongside wall-clock (Figure 2's two series).
func BenchmarkFigure2Scaling(b *testing.B) {
	for _, app := range bench.Figure2Apps() {
		for _, sys := range []core.System{core.GB, core.LS} {
			for _, t := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/t=%d", app, sys, t), func(b *testing.B) {
					spec := benchSpec(app, sys, core.VDefault, "rmat22", t)
					core.Prepare(spec.Input, spec.Scale)
					var modeled int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st := galois.CollectStats(func() {
							if r := core.Run(spec); r.Outcome != core.OK {
								b.Fatal(r.Err)
							}
						})
						modeled = st.ModeledTime(4000)
					}
					b.ReportMetric(float64(modeled), "modeled-work")
				})
			}
		}
	}
}

// BenchmarkFigure3PR times the pagerank variant ladder (Figure 3a).
func BenchmarkFigure3PR(b *testing.B) {
	cases := []struct {
		label string
		sys   core.System
		v     core.Variant
	}{
		{"gb", core.GB, core.VDefault},
		{"gb-res", core.GB, core.VGBRes},
		{"ls-soa", core.LS, core.VLSSoA},
		{"ls", core.LS, core.VDefault},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			runSpec(b, benchSpec(core.PR, c.sys, c.v, "rmat22", 4))
		})
	}
}

// BenchmarkFigure3TC times the triangle-counting variant ladder (Figure 3b).
func BenchmarkFigure3TC(b *testing.B) {
	cases := []struct {
		label string
		sys   core.System
		v     core.Variant
	}{
		{"gb", core.GB, core.VDefault},
		{"gb-sort", core.GB, core.VGBSort},
		{"gb-ll", core.GB, core.VGBLL},
		{"ls", core.LS, core.VDefault},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			runSpec(b, benchSpec(core.TC, c.sys, c.v, "uk07", 4))
		})
	}
}

// BenchmarkFigure3CC times the connected-components variant ladder (3c).
func BenchmarkFigure3CC(b *testing.B) {
	cases := []struct {
		label string
		sys   core.System
		v     core.Variant
	}{
		{"gb", core.GB, core.VDefault},
		{"ls-sv", core.LS, core.VLSSV},
		{"ls", core.LS, core.VDefault},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			runSpec(b, benchSpec(core.CC, c.sys, c.v, "road-USA", 4))
		})
	}
}

// BenchmarkExtensionBC times the betweenness-centrality extension (not a
// paper exhibit; the workload the paper's introduction opens with) in both
// APIs, from four sources like LAGraph's batch variant.
func BenchmarkExtensionBC(b *testing.B) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		b.Fatal(err)
	}
	p := core.Prepare(in, benchScale())
	sources := []uint32{0, p.Src, 1, 2}
	b.Run("gb", func(b *testing.B) {
		AT := p.ABool().Transpose()
		ctx := grb.NewGaloisBLASContext(4)
		srcs := make([]int, len(sources))
		for i, s := range sources {
			srcs[i] = int(s)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lagraph.BC(ctx, p.ABool(), AT, srcs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lonestar.BC(p.G, sources, lonestar.Options{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure3SSSP times the sssp variant ladder (Figure 3d).
func BenchmarkFigure3SSSP(b *testing.B) {
	cases := []struct {
		label string
		sys   core.System
		v     core.Variant
	}{
		{"gb", core.GB, core.VDefault},
		{"ls-notile", core.LS, core.VLSNoTile},
		{"ls", core.LS, core.VDefault},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			runSpec(b, benchSpec(core.SSSP, c.sys, c.v, "road-USA", 4))
		})
	}
}

// TestTraceOverhead is the tentpole's cost guard: with no trace installed,
// instrumented code pays one atomic load per span. The test measures that
// per-call cost directly, scales it by the number of spans a traced
// PageRank run actually records, and requires the product to stay under 2%
// of the untraced run's wall time. Measuring the disabled path per-call
// (instead of diffing two noisy end-to-end runs) keeps the bound
// deterministic.
func TestTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	trace.Install(nil)

	// Per-call cost of a disabled Begin/End pair.
	const calls = 1 << 20
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		sp := trace.Begin(trace.CatKernel, "overhead-probe")
		sp.End()
	}
	perCall := time.Since(t0) / calls

	// How many spans a traced run of the same spec records.
	spec := benchSpec(core.PR, core.SS, core.VDefault, "rmat22", 4)
	spec.Trace = trace.New()
	traced := core.Run(spec)
	if traced.Outcome != core.OK {
		t.Fatalf("traced pr run: %v", traced.Err)
	}
	events := traced.Trace.Events

	// Untraced wall time: best of several runs, so scheduler noise only
	// makes the bound stricter.
	spec.Trace = nil
	wall := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		r := core.Run(spec)
		if r.Outcome != core.OK {
			t.Fatalf("untraced pr run: %v", r.Err)
		}
		if r.Elapsed < wall {
			wall = r.Elapsed
		}
	}

	overhead := perCall * time.Duration(events)
	limit := wall / 50 // 2%
	t.Logf("disabled span cost %v/call x %d events = %v total; untraced wall %v (limit %v)",
		perCall, events, overhead, wall, limit)
	if overhead > limit {
		t.Errorf("disabled-trace overhead %v exceeds 2%% of wall time %v", overhead, wall)
	}
}
