package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"codephage/internal/compile"
	"codephage/internal/figure8"
	"codephage/internal/ir"
	"codephage/internal/patch"
	"codephage/internal/pipeline"
	"codephage/internal/scenario"
	"codephage/internal/smt"
)

// The output checks. Each returns nil when the program's output has the
// property, or an error saying how it does not; a transfer with any
// failing check counts as a failed operation.

// checkRounds: at least one check was transferred, and every round's
// insertion-point arithmetic X − Y − Z = W holds with W ≥ 1.
func checkRounds(res *pipeline.Result) error {
	if len(res.Rounds) == 0 {
		return fmt.Errorf("no check transferred")
	}
	for i, r := range res.Rounds {
		w := r.CandidatePoints - r.UnstablePoints - r.Untranslatable
		if w != r.ViablePoints || r.ViablePoints < 1 {
			return fmt.Errorf("round %d: %d-%d-%d=%d does not hold with W >= 1",
				i+1, r.CandidatePoints, r.UnstablePoints, r.Untranslatable, r.ViablePoints)
		}
	}
	return nil
}

// checkRecompile: compiling the final source with the uncached
// compiler reproduces the final module byte for byte.
func checkRecompile(name string, res *pipeline.Result) error {
	want, err := imageOf(name, res.FinalSource)
	if err != nil {
		return fmt.Errorf("final source: %w", err)
	}
	got, err := res.FinalModule.Bytes()
	if err != nil {
		return fmt.Errorf("final module: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("final module differs from a fresh compile of the final source")
	}
	return nil
}

// checkNoTrap: the module traps on none of the inputs.
func checkNoTrap(mod *ir.Module, inputs [][]byte) error {
	for i, b := range pipeline.Observe(mod, inputs, 0) {
		if s := b.String(); !strings.Contains(s, " trap none ") {
			return fmt.Errorf("input %d: %s", i, s)
		}
	}
	return nil
}

// checkRegression: the patched module behaves like the original on
// every regression input.
func checkRegression(orig, patched *ir.Module, suite [][]byte) error {
	want := pipeline.Observe(orig, suite, 0)
	got := pipeline.Observe(patched, suite, 0)
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("regression input %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkFigure8Row runs every per-row check on one Figure-8 result.
func checkFigure8Row(tr *pipeline.Transfer, res *pipeline.Result) error {
	if err := checkRounds(res); err != nil {
		return err
	}
	if err := checkRecompile(tr.RecipientName, res); err != nil {
		return err
	}
	inputs := [][]byte{tr.Error}
	for _, r := range res.Rounds {
		inputs = append(inputs, r.ErrorInput)
	}
	if err := checkNoTrap(res.FinalModule, inputs); err != nil {
		return fmt.Errorf("final module traps: %w", err)
	}
	orig, err := compile.CompileSource(tr.RecipientName, tr.RecipientSrc)
	if err != nil {
		return fmt.Errorf("original source: %w", err)
	}
	return checkRegression(orig, res.FinalModule, tr.Regression)
}

// checkTableRow: a warm row renders exactly as the cold row of the
// process that made the snapshot.
func checkTableRow(got, want string) error {
	if got != want {
		return fmt.Errorf("warm row differs from the cold row:\n  warm: %q\n  cold: %q", got, want)
	}
	return nil
}

// checkNoSATCalls: a service answered every query from its memo.
func checkNoSATCalls(st smt.ServiceStats) error {
	if st.SATCalls != 0 {
		return fmt.Errorf("made %d SAT calls", st.SATCalls)
	}
	return nil
}

// rowText renders one row as figure8 prints it with -notimes -patches:
// its table line followed by its patch texts.
func rowText(row *figure8.Row) string {
	table := figure8.FormatTableNoTimes([]*figure8.Row{row})
	_, line, _ := strings.Cut(table, "\n") // drop the header
	var sb strings.Builder
	sb.WriteString(line)
	if row.Err == nil {
		for i, p := range row.Patches {
			fmt.Fprintf(&sb, "# %s/%s <- %s patch %d: %s\n", row.Recipient, row.Target, row.Donor, i+1, p)
		}
	}
	return sb.String()
}

// checkOracle: the generator's ground-truth oracle accepts the patched
// source.
func checkOracle(p *scenario.Pair, patchedSrc string) error {
	return scenario.VerifyTransfer(p, patchedSrc)
}

// checkNotDecoy: the selected donor is not one of the suite's naive
// decoys, which carry no relevant check.
func checkNotDecoy(donor string, decoys map[string]bool) error {
	if decoys[donor] {
		return fmt.Errorf("selected the naive decoy %s", donor)
	}
	return nil
}

// checkDedup: the repeat of a request is answered from the dedup index
// with the same job and identical report bytes.
func checkDedup(first, repeat *envelope) error {
	switch {
	case first.Dedup:
		return fmt.Errorf("first submission answered as a dedup hit")
	case !repeat.Dedup:
		return fmt.Errorf("repeat not answered as a dedup hit")
	case repeat.ID != first.ID:
		return fmt.Errorf("repeat answered by job %s, want %s", repeat.ID, first.ID)
	case !bytes.Equal(repeat.Report, first.Report):
		return fmt.Errorf("repeat report bytes differ")
	}
	return nil
}

// checkEngineRuns: the daemon ran the engine exactly once per distinct
// request.
func checkEngineRuns(before, after map[string]float64, distinct int) error {
	const name = "phaged_engine_runs_total"
	if d := after[name] - before[name]; d != float64(distinct) {
		return fmt.Errorf("%s rose by %v over %d distinct requests", name, d, distinct)
	}
	return nil
}

// checkArtifactKey: a fetched artifact's sha256 is its content key.
func checkArtifactKey(data []byte, key string) error {
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != key {
		return fmt.Errorf("artifact sha256 %s, key %s", got, key)
	}
	return nil
}

// checkArtifactApply: applying the artifact to the image compiled from
// the recipient source yields the image compiled from the patched
// source.
func checkArtifactApply(data []byte, name, recipientSrc, patchedSrc string) error {
	a, err := patch.Decode(data)
	if err != nil {
		return err
	}
	orig, err := imageOf(name, recipientSrc)
	if err != nil {
		return fmt.Errorf("recipient source: %w", err)
	}
	want, err := imageOf(name, patchedSrc)
	if err != nil {
		return fmt.Errorf("patched source: %w", err)
	}
	got, err := a.ApplyBytes(orig)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("applied artifact differs from the patched source's image")
	}
	return nil
}

// imageOf compiles src without the cache and returns the module image.
func imageOf(name, src string) ([]byte, error) {
	mod, err := compile.CompileSource(name, src)
	if err != nil {
		return nil, err
	}
	return mod.Bytes()
}
