package main

import (
	"runtime"
	"strconv"
	"time"

	"codephage/internal/smt"
	"codephage/internal/telemetry"
)

// tally accumulates one round's per-layer figures.
type tally map[string]float64

// stageMetric names the per-layer metric of each top-level stage span.
var stageMetric = map[string]string{
	telemetry.StageSelect:        "pipeline.select_s",
	telemetry.StageDiscover:      "pipeline.discover_s",
	telemetry.StageAnalyzePoints: "pipeline.analyze_points_s",
	telemetry.StageTranslate:     "pipeline.translate_s",
	telemetry.StageInsert:        "pipeline.insert_s",
	telemetry.StageValidate:      "pipeline.validate_s",
	telemetry.StageRescan:        "pipeline.rescan_s",
}

// addTransfer folds one transfer into the tally: run is its wall time
// measured around the call that ran it, and root the span tree the
// program returned for it. The root span's own duration is the
// transfer's generation time, stamped before the overflow proof, so
// the run time outside it and outside Select is the proof.
func (t tally) addTransfer(run time.Duration, root *telemetry.Span) {
	t["pipeline.transfers"]++
	t["pipeline.run_s"] += run.Seconds()
	if root == nil {
		return
	}
	var covered, selected time.Duration
	for _, c := range root.Children {
		if m, ok := stageMetric[c.Name]; ok {
			t[m] += c.Duration().Seconds()
			covered += c.Duration()
		}
		if c.Name == telemetry.StageSelect {
			selected += c.Duration()
		}
	}
	t["pipeline.untraced_s"] += (run - covered).Seconds()
	t["pipeline.prove_s"] += (run - root.Duration() - selected).Seconds()
	root.Walk(func(s *telemetry.Span) {
		switch s.Name {
		case telemetry.StageValidate:
			t["pipeline.candidates"]++
			if field(s, "verdict") == "ok" {
				t["validated"]++
			}
		case telemetry.StageRescan:
			switch field(s, "outcome") {
			case "residual":
				t["diode.residuals"]++
				t["diode.rescans"]++
			case "clean":
				t["diode.rescans"]++
			}
		case "ReplayError", "ReplayRegression":
			t["vm.replay_s"] += s.Duration().Seconds()
		case "Compile":
			t["compile.s"] += s.Duration().Seconds()
		case telemetry.StageSelect:
			if n, err := strconv.Atoi(field(s, "attempts")); err == nil {
				t["corpus.attempts"] += float64(n)
			}
		}
	})
}

// finish derives the ratios once every transfer is in.
func (t tally) finish() {
	t["pipeline.candidate_ok_ratio"] = ratio(t["validated"], t["pipeline.candidates"])
	delete(t, "validated")
	t["smt.memo_hit_ratio"] = ratio(t["smt.memo_hits"], t["smt.memo_hits"]+t["smt.memo_misses"])
	t["smt.portfolio_win_ratio"] = ratio(t["smt.portfolio_races"]-t["smt.portfolio_losses"], t["smt.portfolio_races"])
}

// addSolver records the solver activity between two service snapshots.
func (t tally) addSolver(before, after smt.ServiceStats) {
	t["smt.queries"] += float64(after.Queries - before.Queries)
	t["smt.memo_hits"] += float64(after.MemoHits - before.MemoHits)
	t["smt.memo_misses"] += float64(after.MemoMisses - before.MemoMisses)
	t["smt.sat_calls"] += float64(after.SATCalls - before.SATCalls)
	t["smt.sat_conflicts"] += float64(after.SATConflicts - before.SATConflicts)
	t["smt.portfolio_races"] += float64(after.PortfolioRaces - before.PortfolioRaces)
	t["smt.portfolio_losses"] += float64(after.PortfolioLosses - before.PortfolioLosses)
	t["smt.memo_loaded_hits"] += float64(after.MemoLoadedHits - before.MemoLoadedHits)
}

// addRuntime records the Go heap activity between two snapshots.
func (t tally) addRuntime(before, after *runtime.MemStats) {
	t["go.alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t["go.gc_cycles"] += float64(after.NumGC - before.NumGC)
}

func field(s *telemetry.Span, key string) string {
	for _, f := range s.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianTally reduces per-round tallies to one value per metric: the
// median over the rounds.
func medianTally(rounds []tally) map[string]float64 {
	out := map[string]float64{}
	keys := map[string]bool{}
	for _, r := range rounds {
		for k := range r {
			keys[k] = true
		}
	}
	for k := range keys {
		var vs []float64
		for _, r := range rounds {
			vs = append(vs, r[k])
		}
		out[k] = median(vs)
	}
	return out
}
