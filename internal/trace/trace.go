// Package trace models application load traces: time series of the
// application performance metric (requests/s in the paper) sampled on a
// fixed grid. It provides trace construction and validation, CSV
// import/export, slicing and per-day utilities, summary statistics, an O(n)
// sliding-window maximum reported as runs of equal values (the paper's
// look-ahead prediction primitive), and a synthetic generator shaped like
// the 1998 World Cup access logs the paper's evaluation replays (days
// 6–92).
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
)

// SecondsPerDay is the number of samples per day at 1 Hz.
const SecondsPerDay = 86400

// Trace is a load time series sampled once per second. Values are in
// application-metric units and must be finite and non-negative. Values
// are immutable after construction, which is what lets fingerprints be
// cached and traces be shared freely across concurrent simulations.
type Trace struct {
	values []float64
	max    float64 // global maximum, computed once in adopt (see Max)

	// Fingerprint cache (computed at most once; see Fingerprint).
	fpOnce sync.Once
	fp     uint64
}

// Validation errors.
var (
	ErrEmpty        = errors.New("trace: empty trace")
	ErrInvalidValue = errors.New("trace: values must be finite and non-negative")
)

// New constructs a trace from per-second values, validating each. The
// trace keeps its own copy of values.
func New(values []float64) (*Trace, error) {
	return adopt(append([]float64(nil), values...))
}

// adopt validates values and wraps them in a trace without copying,
// computing the maximum in the same pass. The caller hands over ownership:
// values must not be reachable from anywhere else, or the trace would not
// be immutable.
func adopt(values []float64) (*Trace, error) {
	max, err := validMax(values)
	if err != nil {
		return nil, err
	}
	return &Trace{values: values, max: max}, nil
}

// validMax returns the maximum of values, or the error adopt reports for
// them: ErrEmpty, or ErrInvalidValue naming the first bad sample's index.
func validMax(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	max := 0.0
	for i, v := range values {
		// One range test rejects negatives, NaN (it fails every
		// comparison) and ±Inf.
		if !(v >= 0 && v <= math.MaxFloat64) {
			return 0, fmt.Errorf("%w (index %d: %v)", ErrInvalidValue, i, v)
		}
		if v > max {
			max = v
		}
	}
	return max, nil
}

// MustNew is New but panics on error; for tests and literals known valid.
func MustNew(values []float64) *Trace {
	t, err := New(values)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of one-second samples.
func (t *Trace) Len() int { return len(t.values) }

// Fingerprint returns a stable FNV-1a hash of the trace contents (length
// plus every sample bit pattern), computed once per Trace and cached.
// Two traces with equal samples fingerprint equally across processes,
// which is what lets distributed sweep workers and coordinators agree on
// canonical cell identities without exchanging the trace itself.
func (t *Trace) Fingerprint() uint64 {
	t.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(t.values)))
		h.Write(buf[:])
		for _, v := range t.values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		t.fp = h.Sum64()
	})
	return t.fp
}

// At returns the load at second i. Out-of-range indices clamp to the trace
// boundary, which lets predictors look past the end without special cases.
func (t *Trace) At(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= len(t.values) {
		i = len(t.values) - 1
	}
	return t.values[i]
}

// Values returns a copy of the underlying samples.
func (t *Trace) Values() []float64 {
	out := make([]float64, len(t.values))
	copy(out, t.values)
	return out
}

// Slice returns the subtrace [from, to) (seconds). It errors on an empty or
// out-of-range window.
func (t *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to > len(t.values) || from >= to {
		return nil, fmt.Errorf("trace: invalid slice [%d, %d) of %d samples", from, to, len(t.values))
	}
	return New(t.values[from:to])
}

// Day returns the 1-based day d as a subtrace (the paper indexes World Cup
// days starting at 1).
func (t *Trace) Day(d int) (*Trace, error) {
	return t.Slice((d-1)*SecondsPerDay, d*SecondsPerDay)
}

// Days returns how many complete days the trace covers.
func (t *Trace) Days() int { return len(t.values) / SecondsPerDay }

// Max returns the global maximum load. It is computed once, when the
// trace is built, so per-cell callers pay nothing for it.
func (t *Trace) Max() float64 { return t.max }

// Mean returns the average load.
func (t *Trace) Mean() float64 {
	if len(t.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t.values {
		sum += v
	}
	return sum / float64(len(t.values))
}

// MaxInWindow returns the maximum over samples [from, from+width), clamping
// to the trace end — exactly the prediction the paper's scheduler uses
// ("the maximum load value over a window of 378 seconds").
func (t *Trace) MaxInWindow(from, width int) float64 {
	if width <= 0 || len(t.values) == 0 {
		return 0
	}
	if from < 0 {
		from = 0
	}
	to := from + width
	if to > len(t.values) {
		to = len(t.values)
	}
	if from >= len(t.values) {
		from = len(t.values) - 1
		to = len(t.values)
	}
	max := 0.0
	for _, v := range t.values[from:to] {
		if v > max {
			max = v
		}
	}
	return max
}

// SlidingMax returns MaxInWindow(i, width) for every i: the dense form of
// SlidingMaxRuns, one value per second.
func (t *Trace) SlidingMax(width int) ([]float64, error) {
	out := make([]float64, len(t.values))
	err := t.SlidingMaxRuns(width, func(from, to int, max float64) {
		for i := from; i < to; i++ {
			out[i] = max
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// suffixRecord marks a second at which a block's suffix maximum rises
// (scanning backward): the suffix max is m at pos and at every earlier
// second down to, not including, the next record's pos.
type suffixRecord struct {
	pos int
	m   float64
}

// SlidingMaxRuns computes MaxInWindow(i, width) for every i in O(n) and
// reports it run-length encoded: emit is called once per maximal run
// [from, to) of seconds whose window maxima have equal bits, in order, the
// runs covering [0, Len()). It never allocates an array of trace length.
//
// It decomposes the trace into width-aligned blocks (the van Herk /
// Gil-Werman scheme): every window — width seconds wide, or shorter when
// clamped at the trace end — spans at most two blocks, so its max is the
// suffix max of the first and the prefix max of the second. The blocks are
// processed in order. A backward pass over one block keeps only the
// positions where its suffix max rises — a scratch list of at most
// min(width, n) records, and a handful on real load traces; the forward
// pass then walks those records while growing the next block's prefix max.
// A width past the trace end gives the same windows as width n, so the
// blocks never exceed the trace.
func (t *Trace) SlidingMaxRuns(width int, emit func(from, to int, max float64)) error {
	if width <= 0 {
		return fmt.Errorf("trace: invalid window width %d", width)
	}
	vals := t.values
	n := len(vals)
	w := min(width, n)
	rec := make([]suffixRecord, 0, 32) // stays on the stack unless a block needs more
	// The NaN sentinel matches no valid sample, so second 0 opens a run.
	runFrom, runMax, runBits := 0, 0.0, math.Float64bits(math.NaN())
	for start := 0; start < n; start += w {
		end := min(start+w, n)
		// Backward pass: the suffix max of values[j .. end-1] for each j in
		// the block, kept as the records where it rises.
		rec = rec[:0]
		m := vals[end-1]
		rec = append(rec, suffixRecord{end - 1, m})
		for j := end - 2; j >= start; j-- {
			if v := vals[j]; v > m {
				m = v
				rec = append(rec, suffixRecord{j, m})
			}
		}
		// Forward pass. At second i the window is [i, i+w-1] clamped to
		// the trace: the block's suffix max at i, and — once i is past the
		// block start and the block is not the last — the prefix max of
		// values[end .. min(i+w-1, n-1)] in the next block. The prefix
		// starts at -Inf, which never beats a suffix max and which the
		// first folded sample replaces.
		k := len(rec) - 1
		suffix, bound := rec[k].m, rec[k].pos
		prefix := math.Inf(-1)
		r := end // next sample folded into prefix
		for i := start; i < end; i++ {
			if i > bound {
				k--
				suffix, bound = rec[k].m, rec[k].pos
			}
			out := suffix
			if prefix > suffix {
				out = prefix
			}
			if b := math.Float64bits(out); b != runBits {
				if i > 0 {
					emit(runFrom, i, runMax)
				}
				runFrom, runMax, runBits = i, out, b
			}
			if r < n {
				if v := vals[r]; v > prefix {
					prefix = v
				}
				r++
			}
		}
	}
	if n > 0 {
		emit(runFrom, n, runMax)
	}
	return nil
}

// NextChange returns the first second u > i at which the load differs from
// the load at i, or Len() when the trace is constant from i onward.
// Negative i clamps to 0; i at or past the end returns Len().
func (t *Trace) NextChange(i int) int {
	n := len(t.values)
	if i < 0 {
		i = 0
	}
	if i >= n {
		return n
	}
	v := t.values[i]
	for u := i + 1; u < n; u++ {
		if t.values[u] != v {
			return u
		}
	}
	return n
}

// Window returns a read-only view of the samples in [from, to), clamping
// both bounds to the trace. Unlike Slice it neither copies nor
// re-validates: the returned slice aliases the trace's immutable backing
// array and must not be modified. An empty window returns nil. This is the
// interval integrator's bulk access path — whole decide intervals of raw
// samples are folded without a per-second At call or an allocation.
func (t *Trace) Window(from, to int) []float64 {
	if from < 0 {
		from = 0
	}
	if to > len(t.values) {
		to = len(t.values)
	}
	if from >= to {
		return nil
	}
	return t.values[from:to]
}

// Quantize returns a trace of the same length where each window of width
// seconds is replaced by that window's mean — a piecewise-constant trace
// modeling load known at coarser-than-1 Hz granularity (e.g. per-minute
// aggregated access logs). The trailing partial window averages its own
// samples. Quantized traces are what make the event-driven simulator
// dramatically faster than the 1 Hz tick loop: fewer load changes means
// fewer events.
func (t *Trace) Quantize(width int) (*Trace, error) {
	if width <= 0 {
		return nil, fmt.Errorf("trace: invalid quantize width %d", width)
	}
	out := make([]float64, len(t.values))
	quantizeInto(out, t.values, width)
	return adopt(out)
}

// quantizeInto writes to dst the window means Quantize describes, over
// the samples of src (len(dst) == len(src), width > 0). dst may be src
// itself: each window is summed before any of it is overwritten.
func quantizeInto(dst, src []float64, width int) {
	for start := 0; start < len(src); start += width {
		end := start + width
		if end > len(src) {
			end = len(src)
		}
		sum := 0.0
		for _, v := range src[start:end] {
			sum += v
		}
		mean := sum / float64(end-start)
		for i := start; i < end; i++ {
			dst[i] = mean
		}
	}
}

// Scale returns a copy with every sample multiplied by f (>= 0).
func (t *Trace) Scale(f float64) (*Trace, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("trace: invalid scale factor %v", f)
	}
	out := make([]float64, len(t.values))
	for i, v := range t.values {
		out[i] = v * f
	}
	return adopt(out)
}

// DailyPeaks returns the maximum load of each complete day (1-based day d
// at index d-1) — the quantity the UpperBound PerDay scenario dimensions
// against.
func (t *Trace) DailyPeaks() []float64 {
	days := t.Days()
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		out[d] = t.MaxInWindow(d*SecondsPerDay, SecondsPerDay)
	}
	return out
}

// Stats summarizes a trace.
type Stats struct {
	Samples int
	Max     float64
	Mean    float64
	P50     float64
	P95     float64
	P99     float64
}

// Summary computes summary statistics. Percentiles use the nearest-rank
// method on a sorted copy.
func (t *Trace) Summary() Stats {
	s := Stats{Samples: len(t.values), Max: t.Max(), Mean: t.Mean()}
	if len(t.values) == 0 {
		return s
	}
	sorted := t.Values()
	sort.Float64s(sorted)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	s.P50, s.P95, s.P99 = rank(0.50), rank(0.95), rank(0.99)
	return s
}
