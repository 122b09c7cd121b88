package qos

import (
	"fmt"
	"sync"
	"time"
)

// WindowConfig parameterizes a live QoS observation window.
type WindowConfig struct {
	// Span is how far back observations count (0 = 10 s).
	Span time.Duration
	// Threshold is the latency QoS bound. A request whose latency is
	// strictly greater than Threshold violates QoS; a request at exactly
	// Threshold is within QoS. This boundary is pinned by tests: the
	// paper's QoS statements are of the form "latency under X", so X
	// itself still satisfies them.
	Threshold time.Duration
	// MaxViolationRatio is the violating fraction of windowed samples
	// beyond which the window reports degradation; degradation requires
	// the ratio to be strictly greater (a window at exactly the ratio is
	// not degraded). Zero means 0.1.
	MaxViolationRatio float64
	// MinSamples is the minimum number of windowed samples required
	// before the window can report degradation at all: an empty or short
	// window is inconclusive, never degraded. Zero means 5.
	MinSamples int
}

func (c *WindowConfig) fill() error {
	if c.Span == 0 {
		c.Span = 10 * time.Second
	}
	if c.Span < 0 {
		return fmt.Errorf("qos: invalid window span %v", c.Span)
	}
	if c.Threshold <= 0 {
		return fmt.Errorf("qos: invalid latency threshold %v", c.Threshold)
	}
	if c.MaxViolationRatio == 0 {
		c.MaxViolationRatio = 0.1
	}
	if c.MaxViolationRatio < 0 || c.MaxViolationRatio >= 1 {
		return fmt.Errorf("qos: invalid violation ratio %v", c.MaxViolationRatio)
	}
	if c.MinSamples == 0 {
		c.MinSamples = 5
	}
	if c.MinSamples < 1 {
		return fmt.Errorf("qos: invalid min samples %d", c.MinSamples)
	}
	return nil
}

// Window is the live counterpart of Tracker: a sliding window of per-request
// observations (latency, failure) that the control plane polls to detect QoS
// degradation while the farm is serving real traffic. It is safe for
// concurrent use: the load balancer observes from request goroutines while
// the controller polls Degraded.
type Window struct {
	cfg WindowConfig

	mu      sync.Mutex
	samples []windowSample
}

type windowSample struct {
	when      time.Time
	violation bool
}

// NewWindow validates the configuration and builds an empty window.
func NewWindow(cfg WindowConfig) (*Window, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Window{cfg: cfg}, nil
}

// Observe records one completed (or failed) request: failed requests always
// violate QoS; successful requests violate when latency exceeds the
// threshold strictly.
func (w *Window) Observe(when time.Time, latency time.Duration, failed bool) {
	v := failed || latency > w.cfg.Threshold
	w.mu.Lock()
	w.samples = append(w.samples, windowSample{when: when, violation: v})
	w.pruneLocked(when)
	w.mu.Unlock()
}

// pruneLocked drops samples older than the span before now. Observations
// are appended in roughly monotonic order, so pruning scans the prefix.
func (w *Window) pruneLocked(now time.Time) {
	cut := now.Add(-w.cfg.Span)
	i := 0
	for i < len(w.samples) && w.samples[i].when.Before(cut) {
		i++
	}
	if i > 0 {
		w.samples = append(w.samples[:0], w.samples[i:]...)
	}
}

// Counts returns the windowed sample and violation counts as of now.
func (w *Window) Counts(now time.Time) (total, violations int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pruneLocked(now)
	for _, s := range w.samples {
		total++
		if s.violation {
			violations++
		}
	}
	return total, violations
}

// Degraded reports whether the window shows QoS degradation as of now:
// at least MinSamples observations in the span AND a violation ratio
// strictly above MaxViolationRatio. Empty and short windows are
// inconclusive and never degraded.
func (w *Window) Degraded(now time.Time) bool {
	total, violations := w.Counts(now)
	if total < w.cfg.MinSamples {
		return false
	}
	return float64(violations) > w.cfg.MaxViolationRatio*float64(total)
}
