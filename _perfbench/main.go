// Command perfbench is the repository's benchmark: one command that runs a
// seeded workload against the graph-analytics study, checks every answer's
// digest, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced pass) as one JSON object on the last line of
// standard output.
//
// Usage (normally through run.sh, which builds this program and graphd from
// source first):
//
//	perfbench -graphd <path> -workdir <dir> --workload study|ingest \
//	    --seed N --seconds S --trace 0|1
//
// The workloads and metrics are documented in README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main: the metrics of the mode it
// ran in plus the correctness tally over every operation it attempted. Any
// failed operation (an error, timeout, rejection or digest mismatch) or
// problem makes the result incorrect and the command exit non-zero.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// problems lists benchmark-level correctness failures (archetype or
	// layer-tiling checks) that are not per-operation.
	problems []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op records one attempted operation; ok=false counts it as failed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// fail records a failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.op(false)
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// mismatch records a digest mismatch, a failed operation.
func (r *report) mismatch(format string, args ...any) {
	r.fail("digest mismatch: "+format, args...)
}

// correct reports whether every operation succeeded and every check held.
func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// config is the parsed command line shared by every workload.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	graphd   string // graphd binary (ingest)
	workdir  string // scratch directory for data stores
	nproc    int
}

// note prints one human-readable line (an informational figure the JSON
// does not carry: per-system and per-phase figures, sample counts, input
// archetypes).
func note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func main() {
	var cfg config
	var seed int64 = -1
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: study or ingest")
	flag.Int64Var(&seed, "seed", -1, "input seed (required, >= 0)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.graphd, "graphd", "", "path to a graphd binary built from cmd/graphd")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for dataset stores")
	flag.Parse()
	if seed < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seed is required")
		os.Exit(2)
	}
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || cfg.workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0|1 and -workdir")
		os.Exit(2)
	}
	cfg.seed = uint64(seed)
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()

	run := map[string]func(config) (*report, error){
		"study":  runStudy,
		"ingest": runIngest,
	}[cfg.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want study or ingest)\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	note("workload %s seed %d seconds %d trace %v nproc %d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.nproc)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() || rep.attempted == 0 {
		os.Exit(1)
	}
}

// emit prints every metric as a text line, then the JSON result line.
func emit(rep *report) error {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		note("metric %-28s %14.6g %s", n, m.Value, m.Unit)
	}
	if rep.attempted > 0 {
		note("failed_frac %.6f (%d of %d operations)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return errors.New("encoding result: " + err.Error())
	}
	fmt.Println(string(out))
	return nil
}

// setupRounds is how many times each workload repeats its set-up; setup_s
// is the median, so a few slow start-ups do not move it.
const setupRounds = 9
