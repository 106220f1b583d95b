package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"codephage/internal/apps"
	"codephage/internal/corpus"
	"codephage/internal/pipeline"
	"codephage/internal/scenario"
	"codephage/internal/server"
	"codephage/internal/telemetry"
)

// The phaged-auto suite: the generated pairs CI's conformance run
// checks. It is fixed so every run serves the same transfers; the
// workload seed permutes the order the clients submit them in.
const (
	suiteSeed    = 42
	suiteCount   = 100
	clients      = 2 // the writer and the reader of serveSuite
	phagedPasses = 2 // the fewest passes an untraced run makes
)

// envelope is a job envelope as it crosses the wire; the report stays
// raw so a repeat can be compared byte for byte.
type envelope struct {
	ID      string          `json:"id"`
	Key     string          `json:"key"`
	Status  string          `json:"status"`
	Dedup   bool            `json:"dedup"`
	Error   string          `json:"error"`
	Report  json.RawMessage `json:"report"`
	QueueMs int64           `json:"queue_ms"`
	RunMs   int64           `json:"run_ms"`
}

// pairRun is what the clients sent and got back for one pair.
type pairRun struct {
	body           []byte
	first, repeat  *envelope
	artifact       []byte
	fetched        bool
	latency, reads time.Duration
	span           *hspan
	err            error
}

// daemon is one phaged instance served on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(donors []corpus.Donor, loader corpus.ModuleLoader) (*daemon, error) {
	srv := server.New(server.Config{CorpusDonors: donors, CorpusLoader: loader})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: server.NewHTTPServer(srv.Handler()), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// ready waits for the daemon's readiness probe, whose first call
// builds the corpus index.
func (d *daemon) ready(c *http.Client) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := c.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("phaged not ready after 2m (last error: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts the HTTP listener and the server down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, d.srv.Shutdown(ctx))
}

// runPhagedAuto measures phaged serving auto-donor traffic. One pass
// serves the whole suite once on a daemon booted in a fresh process
// (phagedPass). A pass cannot be repeated in one process: a second
// daemon in the process that served the first took about 10% longer
// for the same suite and its readiness wait rose from 2.5 to 4.4 s, with
// the bitvec interner and the heap the first pass left behind. So an
// untraced run makes at least two passes, each in a fresh child
// process, and more while another fits in --seconds, and reports the
// median of their figures: one pass is about 20 s, most of it four
// overflow proofs raced by the solver portfolio, and runs of a single
// pass spread by a third when the machine was busy.
//
// The daemon's telemetry sink traces every job whether or not the run
// is traced, so a traced run serves one pass in this process and only
// reads the job traces and /metrics afterwards. There is no untraced
// daemon to compare it with, so telemetry.overhead_s reads 0 here; the
// Figure-8 workloads measure it, where Options.Trace switches tracing.
func runPhagedAuto(cfg *config) (*outcome, error) {
	if cfg.child || cfg.trace {
		return phagedPass(cfg)
	}
	return childMedians(cfg, phagedPasses)
}

// phagedPass boots the daemon and serves the suite once: setup
// generates the suite, registers it, and brings the daemon up with its
// corpus index; the pass then serves every pair (see serveSuite), and
// its checks run after the window closes.
func phagedPass(cfg *config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	setup := cfg.rec.begin(nil, "setup")
	pairs, decoys, err := generateSuite(cfg.rec, setup, suiteCount)
	if err != nil {
		return nil, err
	}
	donors, loader := scenario.SuiteDonors(pairs)
	transport := &http.Transport{MaxIdleConnsPerHost: clients + 1}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 5 * time.Minute}

	h := cfg.rec.begin(setup, "server.New+Start")
	d, err := startDaemon(donors, loader)
	h.end()
	if err != nil {
		return nil, err
	}
	h = cfg.rec.begin(setup, "GET /readyz")
	err = d.ready(hc)
	indexWait := h.end()
	setup.end()
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	o.metrics["setup_s"] = time.Since(processStart).Seconds()

	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(pairs))
	round := cfg.rec.begin(nil, "round")
	r, err := serveSuite(cfg, hc, d, pairs, order, round)
	err = errors.Join(err, d.stop())
	round.end()
	if err != nil {
		return nil, err
	}
	if err := recordRSS(o); err != nil {
		return nil, err
	}
	o.metrics["wall_s"], o.metrics["cpu_s"] = r.wall.Seconds(), r.cpu.Seconds()
	r.layers["corpus.index_s"] = indexWait.Seconds()
	checkSuite(cfg, o, pairs, decoys, r, round)
	if cfg.trace {
		r.layers["telemetry.overhead_s"] = 0
		r.layers.finish()
		for k, v := range r.layers {
			o.metrics[k] = v
		}
	}
	return o, nil
}

// generateSuite generates the suite's first n pairs and registers their
// programs and targets; decoys names every pair's naive donor.
func generateSuite(rec *recorder, parent *hspan, n int) ([]*scenario.Pair, map[string]bool, error) {
	pairs := make([]*scenario.Pair, n)
	var registered []*apps.App
	var targets []*apps.Target
	decoys := map[string]bool{}
	for i := range pairs {
		h := rec.begin(parent, "scenario.GeneratePair")
		p, err := scenario.GeneratePair(suiteSeed + int64(i))
		h.end()
		if err != nil {
			return nil, nil, fmt.Errorf("generating pair %d: %w", suiteSeed+i, err)
		}
		pairs[i] = p
		registered = append(registered, p.Recipient, p.Donor, p.Naive)
		targets = append(targets, p.Target)
		decoys[p.Naive.Name] = true
	}
	if err := apps.Register(registered...); err != nil {
		return nil, nil, err
	}
	if err := apps.RegisterTargets(targets...); err != nil {
		return nil, nil, err
	}
	return pairs, decoys, nil
}

// suiteRound is one round of phaged traffic.
type suiteRound struct {
	wall, cpu     time.Duration
	runs          []pairRun
	before, after map[string]float64
	layers        tally
}

// serveSuite drives one round of traffic against d and collects what
// came back; it checks nothing. Two closed-loop clients share the
// round: the writer submits each pair's request in the seed's order and
// waits for its report, so the daemon runs one transfer at a time; the
// reader follows one pair behind, re-submitting each finished request
// (a dedup read) and fetching its artifact while the writer's next
// transfer runs. With both clients submitting fresh requests, whether
// two of the suite's few memory-heavy transfers overlapped was a matter
// of timing, and it alone moved peak RSS between about 230 and 350 MB.
func serveSuite(cfg *config, hc *http.Client, d *daemon, pairs []*scenario.Pair, order []int, round *hspan) (*suiteRound, error) {
	r := &suiteRound{runs: make([]pairRun, len(pairs)), layers: tally{}}
	var err error
	if r.before, err = getMetrics(cfg, hc, d.url, round); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	finished := make(chan int, len(order)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(finished)
		for _, i := range order {
			r.runs[i] = submitPair(cfg, hc, d.url, pairs[i], round)
			finished <- i
		}
	}()
	go func() {
		defer wg.Done()
		for i := range finished {
			followPair(cfg, hc, d.url, &r.runs[i])
		}
	}()
	wg.Wait()
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	if r.after, err = getMetrics(cfg, hc, d.url, round); err != nil {
		return nil, err
	}
	r.layers.addRuntime(&ms0, &ms1)
	if cfg.trace {
		for i := range r.runs {
			run := &r.runs[i]
			if run.err != nil || run.first.Status != string(server.StatusDone) {
				continue
			}
			h := cfg.rec.begin(run.span, "GET /v1/jobs/{id}/trace")
			tr := &telemetry.Span{}
			err := getJSON(hc, d.url+"/v1/jobs/"+run.first.ID+"/trace", tr)
			h.end()
			if err != nil {
				return nil, err
			}
			run.span.graft(tr)
			r.layers.addTransfer(time.Duration(run.first.RunMs)*time.Millisecond, tr)
		}
	}
	return r, nil
}

// submitPair submits one pair's request as a donor:"auto" transfer and
// waits for its report.
func submitPair(cfg *config, hc *http.Client, url string, p *scenario.Pair, round *hspan) pairRun {
	run := pairRun{span: cfg.rec.begin(round, "pair").field("pair", p.Name())}
	run.body, _ = json.Marshal(server.Request{Recipient: p.Recipient.Name, Target: p.Target.ID, Donor: pipeline.AutoDonor})
	h := cfg.rec.begin(run.span, "POST /v1/transfer")
	run.first, run.err = postTransfer(hc, url, run.body)
	run.latency = h.end()
	return run
}

// followPair repeats a submitted request and fetches its artifact.
func followPair(cfg *config, hc *http.Client, url string, run *pairRun) {
	defer run.span.end()
	if run.err != nil {
		return
	}
	h := cfg.rec.begin(run.span, "POST /v1/transfer").field("repeat", "true")
	run.repeat, run.err = postTransfer(hc, url, run.body)
	run.reads = h.end()
	if run.err != nil {
		return
	}
	var rep struct {
		PatchKey string `json:"patch_key"`
	}
	if len(run.first.Report) > 0 {
		if run.err = json.Unmarshal(run.first.Report, &rep); run.err != nil {
			return
		}
	}
	if rep.PatchKey != "" {
		h = cfg.rec.begin(run.span, "GET /patches/{key}")
		run.artifact, run.err = getBytes(hc, url+"/patches/"+rep.PatchKey)
		h.end()
		run.fetched = true
	}
}

// checkSuite checks one round's outputs and fills its server, patch
// and solver figures.
func checkSuite(cfg *config, o *outcome, pairs []*scenario.Pair, decoys map[string]bool, r *suiteRound, round *hspan) {
	t := r.layers
	var latencies []float64
	for i, p := range pairs {
		run := &r.runs[i]
		o.attempted++
		if run.err != nil {
			o.fail(p.Name(), run.err)
			continue
		}
		latencies = append(latencies, run.latency.Seconds())
		if run.fetched {
			t["patch.fetches"]++
		}
		t["server.queue_wait_s"] += float64(run.first.QueueMs) / 1000
		t["server.http_s"] += (run.latency - time.Duration(run.first.QueueMs+run.first.RunMs)*time.Millisecond).Seconds()
		t["server.read_s"] += run.reads.Seconds()
		if run.first.Status != string(server.StatusDone) {
			o.fail(p.Name(), fmt.Errorf("transfer %s: %s", run.first.Status, run.first.Error))
			continue
		}
		var rep server.Report
		if err := json.Unmarshal(run.first.Report, &rep); err != nil {
			o.fail(p.Name(), err)
			continue
		}
		t["pipeline.rounds"] += float64(len(rep.Rounds))
		if err := checkPair(p, &rep, run, decoys); err != nil {
			o.fail(p.Name(), err)
			continue
		}
		h := cfg.rec.begin(round, "patch.Apply").field("pair", p.Name())
		err := checkArtifactApply(run.artifact, p.Recipient.Name, p.Recipient.Source, rep.PatchedSource)
		t["patch.apply_s"] += h.end().Seconds()
		if err != nil {
			o.fail(p.Name(), err)
		}
	}
	if err := checkEngineRuns(r.before, r.after, len(pairs)); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	t["server.request_p50_s"] = percentile(latencies, 50)
	t["server.request_p90_s"] = percentile(latencies, 90)
	delta := func(name string) float64 { return r.after[name] - r.before[name] }
	for metric, series := range map[string]string{
		"smt.queries":                 "phaged_solver_queries_total",
		"smt.memo_hits":               "phaged_solver_memo_hits_total",
		"smt.memo_misses":             "phaged_solver_memo_misses_total",
		"smt.sat_calls":               "phaged_solver_sat_calls_total",
		"smt.sat_conflicts":           "phaged_solver_sat_conflicts_total",
		"smt.portfolio_races":         "phaged_solver_portfolio_races_total",
		"smt.portfolio_losses":        "phaged_solver_portfolio_losses_total",
		"smt.memo_loaded_hits":        "phaged_solver_memo_loaded_hits_total",
		"compile.hits":                "phaged_compile_cache_hits_total",
		"compile.misses":              "phaged_compile_cache_misses_total",
		"corpus.selections":           "phaged_corpus_selections_total",
		"corpus.prefilter_candidates": "phaged_corpus_prefilter_candidates_total",
		"corpus.prefilter_skipped":    "phaged_corpus_prefilter_skipped_total",
		"corpus.prefilter_fallbacks":  "phaged_corpus_prefilter_fallbacks_total",
		"server.requests":             "phaged_requests_total",
		"server.engine_runs":          "phaged_engine_runs_total",
		"server.dedup_hits":           "phaged_dedup_hits_total",
	} {
		t[metric] = delta(series)
	}
}

// checkPair runs the per-pair checks on one served pair, all but the
// artifact apply, which is timed on its own.
func checkPair(p *scenario.Pair, rep *server.Report, run *pairRun, decoys map[string]bool) error {
	if err := checkNotDecoy(rep.Donor, decoys); err != nil {
		return err
	}
	if err := checkOracle(p, rep.PatchedSource); err != nil {
		return err
	}
	if err := checkDedup(run.first, run.repeat); err != nil {
		return err
	}
	if rep.PatchKey == "" {
		return errors.New("no patch artifact")
	}
	return checkArtifactKey(run.artifact, rep.PatchKey)
}

func postTransfer(hc *http.Client, url string, body []byte) (*envelope, error) {
	resp, err := hc.Post(url+"/v1/transfer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/transfer: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return &env, nil
}

func getBytes(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	data, err := getBytes(hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// getMetrics reads and parses the daemon's /metrics.
func getMetrics(cfg *config, hc *http.Client, url string, parent *hspan) (map[string]float64, error) {
	h := cfg.rec.begin(parent, "GET /metrics")
	defer h.end()
	data, err := getBytes(hc, url+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(bytes.NewReader(data))
}
