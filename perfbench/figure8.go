package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"codephage/internal/apps"
	"codephage/internal/compile"
	"codephage/internal/figure8"
	"codephage/internal/pipeline"
	"codephage/internal/smt"
)

// f8Task is one Figure-8 row, assembled and ready to run.
type f8Task struct {
	tgt   *apps.Target
	donor string
	tr    *pipeline.Transfer
}

func (t *f8Task) id() string { return fmt.Sprintf("%s/%s<-%s", t.tgt.Recipient, t.tgt.ID, t.donor) }

// setupFigure8 assembles the 18 rows of the catalogue as figure8
// does: one error-input discovery per target, then one transfer per
// donor (which builds the donor binary).
func setupFigure8(cfg *config, parent *hspan, t tally) ([]f8Task, error) {
	var tasks []f8Task
	for _, tgt := range apps.Targets() {
		h := cfg.rec.begin(parent, "figure8.ErrorInputFor").field("target", tgt.Recipient+"/"+tgt.ID)
		_, err := figure8.ErrorInputFor(tgt)
		t["figure8.error_input_s"] += h.end().Seconds()
		if err != nil {
			return nil, fmt.Errorf("error input for %s/%s: %w", tgt.Recipient, tgt.ID, err)
		}
		for _, donor := range tgt.Donors {
			h := cfg.rec.begin(parent, "figure8.NewTransfer").field("donor", donor)
			tr, err := figure8.NewTransfer(tgt, donor, pipeline.Options{})
			h.end()
			if err != nil {
				return nil, fmt.Errorf("transfer %s/%s<-%s: %w", tgt.Recipient, tgt.ID, donor, err)
			}
			tasks = append(tasks, f8Task{tgt: tgt, donor: donor, tr: tr})
		}
	}
	return tasks, nil
}

// f8Round is one batch over the catalogue.
type f8Round struct {
	wall, cpu time.Duration
	results   []*pipeline.Result
	errs      []error
	layers    tally
}

// runBatch runs every task once on eng. Untraced, it is exactly the
// batch figure8 runs. Traced, every transfer sets Options.Trace and
// the harness calls Engine.Run itself, with pipeline.Batch's worker
// split, so it knows each transfer's wall time.
func runBatch(cfg *config, tasks []f8Task, eng *pipeline.Engine, traced bool, parent *hspan) *f8Round {
	r := &f8Round{results: make([]*pipeline.Result, len(tasks)), errs: make([]error, len(tasks)), layers: tally{}}
	svc := eng.Service
	if svc == nil {
		svc = smt.Default()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	svc0, cc0 := svc.Stats(), eng.Compiler.Stats()
	cpu0, t0 := cpuTime(), time.Now()
	if traced {
		runs := make([]time.Duration, len(tasks))
		eachTask(len(tasks), func(i, perTask int) {
			tr := *tasks[i].tr
			tr.Opts.Trace = true
			if eng.Workers == 0 && tr.Opts.Workers == 0 {
				tr.Opts.Workers = perTask
			}
			h := cfg.rec.begin(parent, "pipeline.Engine.Run").field("task", tasks[i].id())
			r.results[i], r.errs[i] = eng.Run(&tr)
			runs[i] = h.end()
			if r.errs[i] == nil {
				h.graft(r.results[i].Trace)
			}
		})
		r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
		for i, res := range r.results {
			if res != nil {
				r.layers.addTransfer(runs[i], res.Trace)
				r.layers["pipeline.rounds"] += float64(len(res.Rounds))
			}
		}
	} else {
		bt := make([]pipeline.BatchTask, len(tasks))
		for i := range tasks {
			bt[i] = pipeline.BatchTask{ID: tasks[i].id(), Transfer: tasks[i].tr}
		}
		h := cfg.rec.begin(parent, "pipeline.Batch.Run")
		out, _ := (&pipeline.Batch{Engine: eng}).Run(bt)
		h.end()
		r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
		for i, br := range out {
			r.results[i], r.errs[i] = br.Result, br.Err
		}
	}
	runtime.ReadMemStats(&ms1)
	r.layers.addSolver(svc0, svc.Stats())
	cc1 := eng.Compiler.Stats()
	r.layers["compile.hits"] = float64(cc1.Hits - cc0.Hits)
	r.layers["compile.misses"] = float64(cc1.Misses - cc0.Misses)
	r.layers.addRuntime(&ms0, &ms1)
	return r
}

// eachTask runs fn over task indices in order on pipeline.Batch's
// default worker count, passing the per-task validation workers the
// batch would give each transfer.
func eachTask(n int, fn func(i, perTask int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	perTask := max(runtime.GOMAXPROCS(0)/workers, 1)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i, perTask)
			}
		}()
	}
	wg.Wait()
}

// checkBatch runs the per-row checks on a round and counts operations.
// want, when set, holds the cold rows a warm round must reproduce.
func checkBatch(o *outcome, tasks []f8Task, r *f8Round, want []string) {
	for i := range tasks {
		o.attempted++
		if r.errs[i] != nil {
			o.fail(tasks[i].id(), r.errs[i])
			continue
		}
		if err := checkFigure8Row(tasks[i].tr, r.results[i]); err != nil {
			o.fail(tasks[i].id(), err)
			continue
		}
		if want != nil {
			if err := checkTableRow(rowText(tableRow(&tasks[i], r.results[i])), want[i]); err != nil {
				o.fail(tasks[i].id(), err)
			}
		}
	}
}

// tableRow derives a figure8 table row from a transfer result, column
// by column as figure8 fills its rows.
func tableRow(t *f8Task, res *pipeline.Result) *figure8.Row {
	row := &figure8.Row{
		Recipient: t.tgt.Recipient, Target: t.tgt.ID, Donor: t.donor, Kind: t.tgt.Kind,
		Result: res, GenTime: res.GenTime, UsedChecks: res.UsedChecks(),
		FirstCheck: true, OverflowOK: res.OverflowFreeProven,
	}
	if res.Donor != "" {
		row.Donor = res.Donor
	}
	for _, pr := range res.Rounds {
		if row.Relevant == 0 {
			row.Relevant = pr.RelevantSites
		}
		row.Flipped = append(row.Flipped, pr.FlippedSites)
		row.Insert = append(row.Insert, [4]int{pr.CandidatePoints, pr.UnstablePoints, pr.Untranslatable, pr.ViablePoints})
		row.CheckSizes = append(row.CheckSizes, [2]int{pr.ExcisedOps, pr.TranslatedOps})
		row.Patches = append(row.Patches, pr.PatchText)
		if pr.CheckIndex != 0 {
			row.FirstCheck = false
		}
	}
	return row
}

// runFigure8Cold measures the catalogue cold: a batch on a fresh engine
// over the process's default solver service and compile cache, exactly
// as cmd/figure8 runs it. A cold batch cannot be repeated in one process
// (the first leaves the solver memo, the bitvec interner and the compile
// cache warm), so every batch runs in a fresh child process: at least
// two, and more while another fits in --seconds. The run reports the
// median of the children's figures, as one batch's peak RSS alone moved
// by about 9% between runs. A traced run makes one untraced child and
// then traces a batch in this process; their difference is the tracing
// overhead.
func runFigure8Cold(cfg *config) (*outcome, error) {
	if cfg.child {
		return coldBatch(cfg)
	}
	minChildren := 2
	if cfg.trace {
		minChildren = 1
	}
	o, err := childMedians(cfg, minChildren)
	if err != nil || !cfg.trace {
		return o, err
	}
	traced, err := coldBatch(cfg)
	if err != nil {
		return nil, err
	}
	traced.metrics["telemetry.overhead_s"] = traced.metrics["wall_s"] - o.metrics["wall_s"]
	traced.attempted += o.attempted
	traced.failed += o.failed
	traced.failures = append(traced.failures, o.failures...)
	traced.wrong = append(traced.wrong, o.wrong...)
	return traced, nil
}

// coldBatch runs one cold batch in this process: setup, then the batch,
// traced when the run is.
func coldBatch(cfg *config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	layers := tally{}
	setup := cfg.rec.begin(nil, "setup")
	tasks, err := setupFigure8(cfg, setup, layers)
	setup.end()
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = time.Since(processStart).Seconds()

	round := cfg.rec.begin(nil, "round").field("traced", fmt.Sprint(cfg.trace))
	r := runBatch(cfg, tasks, pipeline.NewEngine(), cfg.trace, round)
	round.end()
	if err := recordRSS(o); err != nil {
		return nil, err
	}
	checkBatch(o, tasks, r, nil)
	o.metrics["wall_s"], o.metrics["cpu_s"] = r.wall.Seconds(), r.cpu.Seconds()
	if cfg.trace {
		for k, v := range r.layers {
			layers[k] += v
		}
		layers.finish()
		for k, v := range layers {
			o.metrics[k] = v
		}
	}
	return o, nil
}

// runFigure8Warm measures the catalogue warm, from the memo snapshot a
// separate process made. Setup loads the snapshot into the default
// service (as figure8 -memo does) and assembles the rows; each round
// then runs the batch on a fresh engine, compile cache and service
// loaded from the same snapshot, so every round does the same work.
// A traced run alternates untraced and traced rounds: their difference
// is the tracing overhead.
func runFigure8Warm(cfg *config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	dir, err := snapshotDir(cfg.out)
	if err != nil {
		return nil, err
	}
	memoPath := filepath.Join(dir, "memo.snap")
	var want []string
	if err := readJSON(filepath.Join(dir, "rows.json"), &want); err != nil {
		return nil, fmt.Errorf("warm snapshot missing (run perfbench snapshot first): %w", err)
	}
	setupLayers := tally{}
	setup := cfg.rec.begin(nil, "setup")
	h := cfg.rec.begin(setup, "smt.Service.LoadMemo")
	err = loadSnapshot(smt.Default(), memoPath)
	setupLayers["smt.memo_load_s"] = h.end().Seconds()
	if err != nil {
		return nil, err
	}
	tasks, err := setupFigure8(cfg, setup, setupLayers)
	setup.end()
	if err != nil {
		return nil, err
	}
	if len(want) != len(tasks) {
		return nil, fmt.Errorf("snapshot holds %d rows, the catalogue %d", len(want), len(tasks))
	}
	o.metrics["setup_s"] = time.Since(processStart).Seconds()

	var walls, cpus, tracedWalls []float64
	var traced []tally
	err = rounds(cfg, 2, func(i int) error {
		withTrace := cfg.trace && i%2 == 1
		svc := smt.NewService(smt.Config{})
		if err := loadSnapshot(svc, memoPath); err != nil {
			return err
		}
		eng := pipeline.NewEngine()
		eng.Service, eng.Compiler = svc, compile.NewCache(0)
		round := cfg.rec.begin(nil, "round").field("traced", fmt.Sprint(withTrace))
		r := runBatch(cfg, tasks, eng, withTrace, round)
		round.end()
		if err := recordRSS(o); err != nil {
			return err
		}
		if err := checkNoSATCalls(svc.Stats()); err != nil {
			o.wrong = append(o.wrong, fmt.Sprintf("warm round %d: %v", i+1, err))
		}
		checkBatch(o, tasks, r, want)
		if withTrace {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
			traced = append(traced, r.layers)
		} else {
			walls = append(walls, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkNoSATCalls(smt.Default().Stats()); err != nil {
		o.wrong = append(o.wrong, fmt.Sprintf("warm setup: %v", err))
	}
	o.metrics["wall_s"], o.metrics["cpu_s"] = median(walls), median(cpus)
	if cfg.trace {
		for k, v := range medianTally(traced) {
			o.metrics[k] = v
		}
		for k, v := range setupLayers {
			o.metrics[k] = v
		}
		o.metrics["telemetry.overhead_s"] = median(tracedWalls) - median(walls)
		finish := tally(o.metrics)
		finish.finish()
	}
	return o, nil
}

// rounds calls round(0), round(1), ... at least atLeast times, and starts
// another only while one more of the last one's length still fits in
// the measured time, so a run always attempts whole rounds.
func rounds(cfg *config, atLeast int, round func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := round(i); err != nil {
			return err
		}
		if i+1 >= atLeast && time.Since(start)+time.Since(t0) > cfg.seconds {
			return nil
		}
	}
}

// recordRSS stores the process's peak resident set so far.
func recordRSS(o *outcome) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.metrics["peak_rss_mb"] = mb
	return nil
}

// loadSnapshot loads a memo snapshot into svc and insists that it
// installed verdicts: a missing or stale snapshot must stop the run,
// never turn the warm workload cold.
func loadSnapshot(svc *smt.Service, path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("warm snapshot: %w", err)
	}
	if err := svc.LoadMemo(path); err != nil {
		return fmt.Errorf("warm snapshot: %w", err)
	}
	if svc.Stats().MemoLoaded == 0 {
		return fmt.Errorf("warm snapshot %s installed no verdicts", path)
	}
	return nil
}

// snapshotCmd makes the warm workload's snapshot in this process, as
// figure8 -memo does on a first run: the cold batch over the default
// service, then SaveMemo. It also records the cold rows the warm rounds
// must reproduce. A snapshot is keyed by the binary that made it, so a
// rebuilt harness never reads another build's snapshot.
func snapshotCmd(args []string) error {
	out := defaultOut
	if len(args) == 2 && args[0] == "--out" {
		out = args[1]
	} else if len(args) != 0 {
		return errors.New("usage: perfbench snapshot [--out DIR]")
	}
	dir, err := snapshotDir(out)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, "rows.json")); err == nil {
		return nil
	}
	rows, _ := figure8.BatchRows(pipeline.Options{}, &pipeline.Batch{Engine: pipeline.NewEngine()})
	var texts []string
	for _, row := range rows {
		if row.Err != nil {
			return fmt.Errorf("snapshot batch: %s/%s<-%s: %w", row.Recipient, row.Target, row.Donor, row.Err)
		}
		texts = append(texts, rowText(row))
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := smt.Default().SaveMemo(filepath.Join(tmp, "memo.snap")); err != nil {
		return err
	}
	data, err := json.MarshalIndent(texts, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "rows.json"), data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil && !os.IsExist(err) {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: warm snapshot written to %s\n", dir)
	return nil
}

// snapshotDir names the snapshot directory of this binary under out.
func snapshotDir(out string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	base := filepath.Join(out, "snapshots")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(base, hex.EncodeToString(h.Sum(nil))[:16]), nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
