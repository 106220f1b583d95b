// Command perfbench is the repository's benchmark. It drives the
// program through its public packages on three workloads, checks every
// output, and prints each metric by name with its unit; the last line
// of standard output is one JSON result object. BENCHMARK.json names
// the two workloads the benchmark runs, figure8-warm and phaged-auto;
// figure8-cold is run by hand.
//
//	perfbench measure --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--cpuprofile FILE]
//	perfbench snapshot [--out DIR]
//	perfbench steady --workload NAME [--runs N] [--seconds S] [--trace 0|1] [--out DIR]
//
// measure runs one workload in this fresh process; figure8-cold and
// phaged-auto make each of their batches or passes in a fresh child
// process (measure --child). With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it traces the same workload and reports the
// per-layer metrics, writing the harness spans, with the program's
// span trees grafted under them, to DIR/spans/<workload>-seed<N>.json.
//
// snapshot makes the memo snapshot figure8-warm loads, in its own
// process; it does nothing when the snapshot of this binary exists.
//
// steady repeats measure in fresh processes, one seed each counting up
// from --seed, and prints each metric's median, quartiles and quartile
// spread.
//
// run.sh builds the binary from source and runs measure; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// processStart stamps process start for setup_s. The runtime's start
// and the package initialisers run before it; together they take about
// 3 ms.
var processStart = time.Now()

// metricDef is one metric the benchmark reports.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "CPU-s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every traced
// run; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"smt.queries", "count"},
	{"smt.memo_hits", "count"},
	{"smt.memo_misses", "count"},
	{"smt.memo_hit_ratio", "ratio"},
	{"smt.sat_calls", "count"},
	{"smt.sat_conflicts", "count"},
	{"smt.portfolio_races", "count"},
	{"smt.portfolio_losses", "count"},
	{"smt.portfolio_win_ratio", "ratio"},
	{"pipeline.prove_s", "s"},
	{"pipeline.select_s", "s"},
	{"pipeline.discover_s", "s"},
	{"pipeline.analyze_points_s", "s"},
	{"pipeline.translate_s", "s"},
	{"pipeline.insert_s", "s"},
	{"pipeline.validate_s", "s"},
	{"pipeline.rescan_s", "s"},
	{"pipeline.run_s", "s"},
	{"pipeline.transfers", "count"},
	{"pipeline.rounds", "count"},
	{"pipeline.candidates", "count"},
	{"pipeline.candidate_ok_ratio", "ratio"},
	{"pipeline.untraced_s", "s"},
	{"diode.rescans", "count"},
	{"diode.residuals", "count"},
	{"vm.replay_s", "s"},
	{"compile.s", "s"},
	{"compile.hits", "count"},
	{"compile.misses", "count"},
	{"figure8.error_input_s", "s"},
	{"smt.memo_load_s", "s"},
	{"smt.memo_loaded_hits", "count"},
	{"corpus.index_s", "s"},
	{"corpus.selections", "count"},
	{"corpus.attempts", "count"},
	{"corpus.prefilter_candidates", "count"},
	{"corpus.prefilter_skipped", "count"},
	{"corpus.prefilter_fallbacks", "count"},
	{"server.requests", "count"},
	{"server.engine_runs", "count"},
	{"server.dedup_hits", "count"},
	{"server.queue_wait_s", "s"},
	{"server.http_s", "s"},
	{"server.read_s", "s"},
	{"server.request_p50_s", "s"},
	{"server.request_p90_s", "s"},
	{"patch.fetches", "count"},
	{"patch.apply_s", "s"},
	{"telemetry.overhead_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"figure8-cold": runFigure8Cold,
	"figure8-warm": runFigure8Warm,
	"phaged-auto":  runPhagedAuto,
}

// config is one measure invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	child    bool // run one cold batch or phaged pass in this process
	out      string
	rec      *recorder // nil unless tracing
}

// outcome is what a workload run produced.
type outcome struct {
	attempted int
	failed    int
	// wrong lists violations of properties that belong to no single
	// operation (a round's engine-run count, the warm pass's SAT
	// calls); any makes the result incorrect.
	wrong    []string
	failures []string // one line per failed operation
	metrics  map[string]float64
}

func (o *outcome) fail(op string, err error) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf("%s: %v", op, err))
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "measure":
		err = measure(os.Args[2:])
	case "snapshot":
		err = snapshotCmd(os.Args[2:])
	case "steady":
		err = steady(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: perfbench measure|snapshot|steady [flags]")
	os.Exit(2)
}

func measure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	workload := fs.String("workload", "", "figure8-cold, figure8-warm or phaged-auto")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to measure, in whole rounds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", defaultOut, "directory for snapshots and span files")
	cpuprofile := fs.String("cpuprofile", "", "also write a CPU profile of the whole run to this file")
	child := fs.Bool("child", false, "internal: run one figure8-cold batch or phaged-auto pass in this process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run := workloads[*workload]
	if run == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		child:    *child,
		out:      *out,
	}
	if cfg.trace {
		cfg.rec = newRecorder(cfg.workload, cfg.seed)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	o, err := run(cfg)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := cfg.rec.write(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return report(cfg, o)
}

// report prints every metric of the run's kind, the operation counts
// and failures, and the closing JSON line.
func report(cfg *config, o *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(o.wrong) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-30s %14.6f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("attempted %d failed %d\n", o.attempted, o.failed)
	sort.Strings(o.failures)
	for _, f := range o.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	for _, w := range o.wrong {
		fmt.Printf("WRONG %s\n", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// defaultOut is where run.sh keeps everything the benchmark writes.
const defaultOut = ".bench_build/perfbench"
