package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childMedians measures the workload in fresh child processes (measure
// --child), for workloads whose unit of work cannot be repeated in one
// process: at least atLeast children, and more while another fits in
// --seconds. It folds the children's operations and failures into the
// outcome it returns, whose metrics are the median of each end-to-end
// metric over the children.
func childMedians(cfg *config, atLeast int) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	values := map[string][]float64{}
	err := rounds(cfg, atLeast, func(int) error {
		res, err := runChild(cfg, o)
		if err != nil {
			return err
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok {
				return fmt.Errorf("%s child reported no %s", cfg.workload, d.name)
			}
			values[d.name] = append(values[d.name], m.Value)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for name, vs := range values {
		o.metrics[name] = median(vs)
	}
	return o, nil
}

// runChild runs the workload once in a fresh child process, waits for
// it, folds its operations and failures into o, and returns its result.
func runChild(cfg *config, o *outcome) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "measure", "--child", "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.Itoa(int(cfg.seconds/time.Second)),
		"--trace", "0", "--out", cfg.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", cfg.workload, err)
	}
	res, err := foldChild(o, stdout)
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", cfg.workload, err)
	}
	return res, nil
}

// foldChild parses a child's standard output and folds its operations,
// FAILED lines and WRONG lines into o. A child that reports an
// incorrect result without saying why still makes o incorrect.
func foldChild(o *outcome, stdout []byte) (*result, error) {
	res, err := lastResult(stdout)
	if err != nil {
		return nil, err
	}
	o.attempted += res.Attempted
	o.failed += res.Failed
	wrong := len(o.wrong)
	for _, line := range strings.Split(string(stdout), "\n") {
		if f, ok := strings.CutPrefix(line, "FAILED "); ok {
			o.failures = append(o.failures, f)
		} else if w, ok := strings.CutPrefix(line, "WRONG "); ok {
			o.wrong = append(o.wrong, w)
		}
	}
	if !res.Correct && len(o.wrong) == wrong {
		o.wrong = append(o.wrong, "a child process reported an incorrect result")
	}
	return res, nil
}
