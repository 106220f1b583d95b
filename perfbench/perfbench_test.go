package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"codephage/internal/apps"
	"codephage/internal/compile"
	"codephage/internal/figure8"
	"codephage/internal/patch"
	"codephage/internal/pipeline"
	"codephage/internal/scenario"
	"codephage/internal/smt"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v), which the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); !near(m, 5) {
		t.Errorf("median = %v, want 5", m)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := percentile(v, 50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(v, 90); p != 90 {
		t.Errorf("p90 = %v, want 90", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Errorf("p50 of nothing = %v, want 0", p)
	}
}

func TestParseMetrics(t *testing.T) {
	in := `# HELP phaged_requests_total requests
phaged_requests_total 200
phaged_solver_sat_time_seconds 1.250000
phaged_shard_solver_queries_total{shard="1"} 7
phaged_stage_duration_seconds_bucket{stage="Rescan",le="+Inf"} 3

`
	m, err := parseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"phaged_requests_total":                                          200,
		"phaged_solver_sat_time_seconds":                                 1.25,
		`phaged_shard_solver_queries_total{shard="1"}`:                   7,
		`phaged_stage_duration_seconds_bucket{stage="Rescan",le="+Inf"}`: 3,
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	for _, bad := range []string{"phaged_requests_total\n", "phaged_requests_total many\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  512000 kB\nVmRSS:\t  100 kB\n"
	b, err := parseVmHWM(status)
	if err != nil || b != 512000*1024 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", b, err, 512000*1024)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted it", bad)
		}
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB = %v, %v", mb, err)
	}
}

// The metric lists the harness prints are exactly those BENCHMARK.json
// declares, unit for unit, and the harness runs each of its workloads.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: harness %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, b.EndToEnd)
	compare("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) == 0 {
		t.Error("BENCHMARK.json names no workload")
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

func mustCompile(t *testing.T, name, src string) []byte {
	t.Helper()
	img, err := imageOf(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// figure8Task assembles the catalogue row jasper/jpc_dec.c@492, whose
// error input is catalogued, so no discovery runs.
func figure8Task(t *testing.T) *pipeline.Transfer {
	t.Helper()
	tgt, err := apps.TargetByID("jasper", "jpc_dec.c@492")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := figure8.NewTransfer(tgt, tgt.Donors[0], pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Every Figure-8 row check passes on a real transfer and fails once the
// original module is passed off as the patched one, or the output is
// broken in any other way one check guards.
func TestFigure8RowChecks(t *testing.T) {
	tr := figure8Task(t)
	res, err := pipeline.NewEngine().Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFigure8Row(tr, res); err != nil {
		t.Fatalf("real transfer fails its checks: %v", err)
	}
	orig, err := compile.CompileSource(tr.RecipientName, tr.RecipientSrc)
	if err != nil {
		t.Fatal(err)
	}

	unpatched := *res
	unpatched.FinalSource, unpatched.FinalModule = tr.RecipientSrc, orig
	if err := checkFigure8Row(tr, &unpatched); err == nil || !strings.Contains(err.Error(), "traps") {
		t.Errorf("original module passed off as patched: got %v, want a trap", err)
	}

	mismatched := *res
	mismatched.FinalModule = orig
	if err := checkRecompile(tr.RecipientName, &mismatched); err == nil {
		t.Error("checkRecompile accepted a module that is not the final source's")
	}

	noRounds := *res
	noRounds.Rounds = nil
	if err := checkRounds(&noRounds); err == nil {
		t.Error("checkRounds accepted a transfer with no check")
	}
	badW := *res
	badW.Rounds = append([]pipeline.PatchRound(nil), res.Rounds...)
	badW.Rounds[0].ViablePoints++
	if err := checkRounds(&badW); err == nil {
		t.Error("checkRounds accepted X-Y-Z != W")
	}

	// A different program of the same format does not behave like the
	// recipient on its regression suite.
	other, err := apps.ByName("openjpeg")
	if err != nil {
		t.Fatal(err)
	}
	otherMod, err := compile.CompileSource(other.Name, other.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRegression(orig, orig, tr.Regression); err != nil {
		t.Errorf("a module differs from itself: %v", err)
	}
	if err := checkRegression(orig, otherMod, tr.Regression); err == nil {
		t.Error("checkRegression accepted another program's behaviour")
	}

	if err := checkNoSATCalls(smt.ServiceStats{}); err != nil {
		t.Error(err)
	}
	if err := checkNoSATCalls(smt.ServiceStats{SATCalls: 1}); err == nil {
		t.Error("checkNoSATCalls accepted a SAT call")
	}

	row := rowText(tableRow(&f8Task{tgt: &apps.Target{Recipient: "jasper", ID: "jpc_dec.c@492"}, donor: tr.DonorName, tr: tr}, res))
	if err := checkTableRow(row, row); err != nil {
		t.Error(err)
	}
	if err := checkTableRow(row, strings.Replace(row, "jasper", "jaspex", 1)); err == nil {
		t.Error("checkTableRow accepted a differing row")
	}
}

// Every phaged pair check fails on deliberately broken output.
func TestPhagedChecks(t *testing.T) {
	p, err := scenario.GeneratePair(suiteSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(p, p.Recipient.Source); err == nil {
		t.Error("the oracle accepted the unpatched recipient")
	}
	if err := checkNotDecoy(p.Naive.Name, map[string]bool{p.Naive.Name: true}); err == nil {
		t.Error("checkNotDecoy accepted the naive decoy")
	}
	if err := checkNotDecoy(p.Donor.Name, map[string]bool{p.Naive.Name: true}); err != nil {
		t.Error(err)
	}

	first := &envelope{ID: "job-000001", Report: json.RawMessage(`{"donor":"d"}`)}
	repeat := &envelope{ID: "job-000001", Dedup: true, Report: json.RawMessage(`{"donor":"d"}`)}
	if err := checkDedup(first, repeat); err != nil {
		t.Error(err)
	}
	for name, bad := range map[string]*envelope{
		"not dedup":     {ID: "job-000001", Report: repeat.Report},
		"other job":     {ID: "job-000002", Dedup: true, Report: repeat.Report},
		"other report":  {ID: "job-000001", Dedup: true, Report: json.RawMessage(`{"donor":"e"}`)},
		"missing bytes": {ID: "job-000001", Dedup: true},
	} {
		if err := checkDedup(first, bad); err == nil {
			t.Errorf("checkDedup accepted a repeat with %s", name)
		}
	}

	before := map[string]float64{"phaged_engine_runs_total": 3}
	if err := checkEngineRuns(before, map[string]float64{"phaged_engine_runs_total": 103}, 100); err != nil {
		t.Error(err)
	}
	if err := checkEngineRuns(before, map[string]float64{"phaged_engine_runs_total": 203}, 100); err == nil {
		t.Error("checkEngineRuns accepted an engine run per repeat")
	}

	// An artifact from the recipient's image to another image: its key
	// is its hash, and it applies only to the image it was made for.
	name := p.Recipient.Name
	orig := mustCompile(t, name, p.Recipient.Source)
	patched := mustCompile(t, name, p.Donor.Source)
	a, err := patch.New(orig, patched)
	if err != nil {
		t.Fatal(err)
	}
	data := a.Encode()
	if err := checkArtifactKey(data, a.Key()); err != nil {
		t.Error(err)
	}
	if err := checkArtifactKey(append(data[:len(data):len(data)], 0), a.Key()); err == nil {
		t.Error("checkArtifactKey accepted altered bytes")
	}
	if err := checkArtifactApply(data, name, p.Recipient.Source, p.Donor.Source); err != nil {
		t.Error(err)
	}
	if err := checkArtifactApply(data, name, p.Recipient.Source, p.Recipient.Source); err == nil {
		t.Error("checkArtifactApply accepted the original passed off as the patched source")
	}
}

// A cold child's operations, failures and verdict carry over to the run
// that made it.
func TestFoldChild(t *testing.T) {
	o := &outcome{}
	if _, err := foldChild(o, []byte("setup_s 1 s\nattempted 18 failed 0\n"+
		`{"correct":true,"attempted":18,"failed":0,"metrics":{}}`+"\n")); err != nil {
		t.Fatal(err)
	}
	res, err := foldChild(o, []byte("FAILED dillo/png.c@203<-feh: final module traps\n"+
		`{"correct":false,"attempted":18,"failed":1,"metrics":{"wall_s":{"value":2,"unit":"s"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["wall_s"].Value != 2 {
		t.Errorf("wall_s = %v, want 2", res.Metrics["wall_s"])
	}
	if o.attempted != 36 || o.failed != 1 || len(o.failures) != 1 || !strings.Contains(o.failures[0], "traps") {
		t.Errorf("folded %d attempted, %d failed, failures %q", o.attempted, o.failed, o.failures)
	}
	if len(o.wrong) != 1 {
		t.Errorf("an incorrect child left wrong = %q", o.wrong)
	}
	if _, err := foldChild(o, []byte("perfbench: error input for dillo\n")); err == nil {
		t.Error("foldChild accepted output with no result line")
	}
}

// A few pairs served end to end pass every check, with the writer and
// the reader sharing the round; -race watches what they share.
func TestServeSuite(t *testing.T) {
	pairs, decoys, err := generateSuite(nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(scenario.SuiteDonors(pairs))
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: time.Minute}
	if err := d.ready(hc); err != nil {
		t.Fatal(errors.Join(err, d.stop()))
	}
	cfg := &config{workload: "phaged-auto"}
	r, err := serveSuite(cfg, hc, d, pairs, []int{2, 0, 1}, nil)
	if err := errors.Join(err, d.stop()); err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	checkSuite(cfg, o, pairs, decoys, r, nil)
	if o.attempted != 3 || o.failed != 0 || len(o.wrong) != 0 {
		t.Fatalf("attempted %d, failed %d: %q; wrong: %q", o.attempted, o.failed, o.failures, o.wrong)
	}
	if r.layers["server.dedup_hits"] != 3 || r.layers["patch.fetches"] != 3 {
		t.Errorf("dedup hits %v, fetches %v; want 3 each", r.layers["server.dedup_hits"], r.layers["patch.fetches"])
	}
}
