package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"codephage/internal/telemetry"
)

// recorder keeps the harness's own spans in memory: one span around
// every public call the harness makes into the program, with the span
// trees the program returns grafted under the call that produced them.
// The tree is written out once, when the run ends. A nil recorder
// (untraced runs) records nothing, yet spans still time their call, so
// the same code path serves both kinds of run.
type recorder struct {
	mu   sync.Mutex
	root *telemetry.Span
}

func newRecorder(workload string, seed int64) *recorder {
	root := telemetry.New("perfbench").Field("workload", workload).Fieldf("seed", "%d", seed)
	return &recorder{root: root}
}

// hspan is one open harness span.
type hspan struct {
	r  *recorder
	sp *telemetry.Span // nil when not recording
	t0 time.Time
}

// begin opens a span named name under parent (the root when parent is
// nil). Its start is stamped relative to process start.
func (r *recorder) begin(parent *hspan, name string) *hspan {
	h := &hspan{r: r, t0: time.Now()}
	if r == nil {
		return h
	}
	h.sp = &telemetry.Span{Name: name}
	h.sp.Metricf("start_ms", "%.3f", float64(h.t0.Sub(processStart).Microseconds())/1000)
	r.mu.Lock()
	if parent == nil || parent.sp == nil {
		r.root.Adopt(h.sp)
	} else {
		parent.sp.Adopt(h.sp)
	}
	r.mu.Unlock()
	return h
}

// end closes the span and returns how long it was open.
func (h *hspan) end() time.Duration {
	d := time.Since(h.t0)
	if h.sp != nil {
		h.r.mu.Lock()
		h.sp.SetDuration(d)
		h.r.mu.Unlock()
	}
	return d
}

// field attaches a structural attribute to the span.
func (h *hspan) field(key, value string) *hspan {
	if h.sp != nil {
		h.r.mu.Lock()
		h.sp.Field(key, value)
		h.r.mu.Unlock()
	}
	return h
}

// graft places a span tree returned by the program under this span.
func (h *hspan) graft(program *telemetry.Span) {
	if h.sp != nil && program != nil {
		h.r.mu.Lock()
		h.sp.Adopt(program)
		h.r.mu.Unlock()
	}
}

// write stores the span tree as indented JSON at path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	data, err := r.root.Marshal()
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
