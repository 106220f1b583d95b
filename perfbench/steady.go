package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady repeats one workload in fresh processes, one seed each, and
// prints every metric's median, quartiles and quartile spread (the
// distance between the quartiles as a share of the median): the
// figures a benchmark bound has to cover.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	firstSeed := fs.Int64("seed", 1, "seed of the first run; later runs count up")
	seconds := fs.Int("seconds", 20, "--seconds of each run")
	trace := fs.Int("trace", 0, "--trace of each run")
	out := fs.String("out", defaultOut, "directory for snapshots and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if workloads[*workload] == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if *workload == "figure8-warm" {
		cmd := exec.Command(exe, "snapshot", "--out", *out)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := *firstSeed + int64(i)
		cmd := exec.Command(exe, "measure", "--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace), "--out", *out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Printf("seed %d: correct %v attempted %d failed %d", seed, res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Printf(" %s=%.4g", name, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-30s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, name := range sortedKeys(values) {
		vs := values[name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		fmt.Printf("%-30s %14.6f %14.6f %14.6f %7.2f%% %s\n", name, med, q1, q3, 100*ratio(q3-q1, med), units[name])
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
