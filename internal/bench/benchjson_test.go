package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *BenchReport {
	return &BenchReport{
		Schema: BenchSchema, Seed: 42, Scenario: "smoke",
		Serving: &ServingBench{
			Requests: 48, OK: 48, LatP50Ms: 5, LatP99Ms: 40, ThroughputRPS: 100,
		},
		Kernels: []KernelBench{
			{App: "bfs", System: "LS", Graph: "rmat22", Scale: "test",
				ElapsedMs: 3, KernelMs: 2, Rounds: 7, Bytes: 1000, Check: "abc"},
			{App: "pr", System: "GB", Graph: "rmat22", Scale: "test",
				ElapsedMs: 9, KernelMs: 8, Rounds: 10, Bytes: 5000, Check: "def"},
		},
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := sampleReport()
	if err := WriteBenchFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serving == nil || got.Serving.Requests != 48 || len(got.Kernels) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Writing is stable: a second write produces identical bytes.
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchFile(path, got); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("re-writing a read report changed the bytes")
	}
}

func TestBenchFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestMergeBenchFile: the two producers (graphbench fills serving,
// gentables fills kernels) can build one file in either order.
func TestMergeBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_m.json")
	if err := MergeBenchFile(path, func(r *BenchReport) {
		r.Kernels = sampleReport().Kernels
	}); err != nil {
		t.Fatal(err)
	}
	if err := MergeBenchFile(path, func(r *BenchReport) {
		r.Serving = sampleReport().Serving
		r.Seed = 42
	}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serving == nil || len(got.Kernels) != 2 || got.Seed != 42 {
		t.Fatalf("merge lost a section: %+v", got)
	}
}

func TestCompareCleanPass(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	if v := Compare(base, fresh, DefaultTolerances()); len(v) != 0 {
		t.Fatalf("identical reports produced findings: %v", v)
	}
	// Noise within tolerance passes too.
	fresh.Serving.LatP99Ms = base.Serving.LatP99Ms * 3
	fresh.Kernels[0].ElapsedMs = base.Kernels[0].ElapsedMs * 5
	if v := Compare(base, fresh, DefaultTolerances()); len(v) != 0 {
		t.Fatalf("in-tolerance noise produced findings: %v", v)
	}
}

func TestCompareCatchesRegressions(t *testing.T) {
	tol := DefaultTolerances()
	cases := []struct {
		name   string
		mutate func(*BenchReport)
		want   string
	}{
		{"digest change", func(r *BenchReport) { r.Kernels[0].Check = "zzz" }, ".check"},
		{"rounds change", func(r *BenchReport) { r.Kernels[0].Rounds++ }, ".rounds"},
		{"bytes blow-up", func(r *BenchReport) { r.Kernels[1].Bytes *= 2 }, ".bytes"},
		{"kernel slowdown", func(r *BenchReport) { r.Kernels[1].KernelMs = r.Kernels[1].KernelMs*20 + 2000 }, ".kernel_ms"},
		{"missing cell", func(r *BenchReport) { r.Kernels = r.Kernels[:1] }, "missing from fresh"},
		{"request count drift", func(r *BenchReport) { r.Serving.Requests++ }, "serving.requests"},
		{"errors appear", func(r *BenchReport) { r.Serving.Errors = 3 }, "serving.errors"},
		{"p99 blow-up", func(r *BenchReport) { r.Serving.LatP99Ms = r.Serving.LatP99Ms*20 + 2000 }, "serving.lat_p99_ms"},
		{"serving section dropped", func(r *BenchReport) { r.Serving = nil }, "serving section"},
	}
	for _, c := range cases {
		fresh := sampleReport()
		c.mutate(fresh)
		v := Compare(sampleReport(), fresh, tol)
		found := false
		for _, msg := range v {
			if strings.Contains(msg, c.want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: findings %v do not mention %q", c.name, v, c.want)
		}
	}
}

// TestCompareIgnoresRelaxations: Lonestar sssp's relaxation count moves
// with the schedule, so the gate must not compare it.
func TestCompareIgnoresRelaxations(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	base.Kernels[0].Relaxations, fresh.Kernels[0].Relaxations = 608, 613
	if v := Compare(base, fresh, DefaultTolerances()); len(v) != 0 {
		t.Fatalf("a relaxation-count difference produced findings: %v", v)
	}
}

// TestCompareExtraFreshCellsAllowed: new cells in the fresh run (a new
// app or graph added to the bench set) are not regressions.
func TestCompareExtraFreshCellsAllowed(t *testing.T) {
	fresh := sampleReport()
	fresh.Kernels = append(fresh.Kernels, KernelBench{
		App: "tc", System: "LS", Graph: "rmat22", Scale: "test", Check: "x"})
	if v := Compare(sampleReport(), fresh, DefaultTolerances()); len(v) != 0 {
		t.Fatalf("extra fresh cell produced findings: %v", v)
	}
}

// TestBenchKernelsDeterministic runs the offline bench experiment twice
// at test scale and asserts the deterministic columns are identical —
// the property that lets the gate compare them exactly.
func TestBenchKernelsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full bench cell set twice")
	}
	cfg := testConfig()
	a, err := BenchKernels(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchKernels(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The static cell grid plus the cold+warm incremental pair per workload.
	want := len(benchCells()) + 2*len(incrBenchApps)
	if len(a) != want || len(a) != len(b) {
		t.Fatalf("cell counts: %d and %d, want %d", len(a), len(b), want)
	}
	for i := range a {
		if a[i].Check == "" {
			t.Fatalf("cell %s/%s/%s has empty digest", a[i].App, a[i].System, a[i].Graph)
		}
		// Relaxations are left out on purpose: they depend on the schedule.
		if a[i].Check != b[i].Check || a[i].Rounds != b[i].Rounds || a[i].Bytes != b[i].Bytes ||
			a[i].BytesElided != b[i].BytesElided {
			t.Fatalf("cell %s/%s/%s not deterministic: (%s,%d,%d,%d) vs (%s,%d,%d,%d)",
				a[i].App, a[i].System, a[i].Graph,
				a[i].Check, a[i].Rounds, a[i].Bytes, a[i].BytesElided,
				b[i].Check, b[i].Rounds, b[i].Bytes, b[i].BytesElided)
		}
		if a[i].App == "sssp" && a[i].System == "LS" && (a[i].Rounds != 0 || a[i].Relaxations <= 0) {
			t.Fatalf("LS sssp on %s: rounds %d, relaxations %d; want the relaxation count in relaxations only",
				a[i].Graph, a[i].Rounds, a[i].Relaxations)
		}
	}
	// The matrix systems materialize measurably more bytes than the
	// graph API on the same cells — the paper's core claim, visible
	// straight from the bench rows.
	var gbBytes, lsBytes int64
	for _, k := range a {
		switch k.System {
		case "GB":
			gbBytes += k.Bytes
		case "LS":
			lsBytes += k.Bytes
		}
	}
	if gbBytes <= lsBytes {
		t.Fatalf("GB bytes %d <= LS bytes %d; expected matrix API to materialize more", gbBytes, lsBytes)
	}
}
