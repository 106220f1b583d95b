package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of values, as Python's statistics.median
// computes it (mean of the two middle values for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of values with the
// method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so spreads printed here match the ones the
// benchmark is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	rank := int(p/100*float64(len(s))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// parseMetrics reads a Prometheus-style text exposition (phaged's
// /metrics) into a map from series (name plus any label set, verbatim)
// to value. Comment lines are skipped; a line that does not end in a
// number is an error, since a malformed exposition would silently zero
// every counter derived from it.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexAny(line, " \t")
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// parseVmHWM extracts the peak resident set size, in bytes, from the
// contents of a /proc/<pid>/status file.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("VmHWM: unexpected line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("VmHWM: no such line")
}

// peakRSSMB returns this process's peak resident set in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	b, err := parseVmHWM(string(data))
	return float64(b) / 1e6, err
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
