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
	"errors"
	"fmt"
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
//
// A trace is stored one of two ways, fixed by its constructor. New, Read,
// raw ReadFile, GenerateWorldCup and FromAccessLog keep every sample in a
// dense array. Quantize, quantized ReadFile, and Scale and Slice of a run
// trace keep runs instead: a value and an exclusive end per run, a new run
// wherever the sample's bits change, so a day quantized at 600 s is 144
// runs rather than 86,400 samples. Every method answers the same on both.
type Trace struct {
	n      int       // samples
	values []float64 // the samples of a dense trace; nil on a run trace
	// The runs of a run trace: run k holds runVals[k] on [runEnds[k-1],
	// runEnds[k]), from 0 for k = 0. Neighbouring runs differ in bits.
	runVals []float64
	runEnds []int32
	max     float64 // global maximum, computed once at construction (see Max)

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

// adopt validates values and wraps them in a dense trace without copying,
// computing the maximum in the same pass. The caller hands over ownership:
// values must not be reachable from anywhere else, or the trace would not
// be immutable.
func adopt(values []float64) (*Trace, error) {
	max, err := validMax(values)
	if err != nil {
		return nil, err
	}
	return &Trace{n: len(values), values: values, max: max}, nil
}

// validMax returns the maximum of values, or the error adopt reports for
// them: ErrEmpty, or ErrInvalidValue naming the first bad sample's index.
func validMax(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	max := 0.0
	for i, v := range values {
		if err := checkSample(i, v); err != nil {
			return 0, err
		}
		if v > max {
			max = v
		}
	}
	return max, nil
}

// checkSample returns the ErrInvalidValue of sample i unless v is a valid
// load. One range test rejects negatives, NaN (it fails every comparison)
// and ±Inf.
func checkSample(i int, v float64) error {
	if !(v >= 0 && v <= math.MaxFloat64) {
		return fmt.Errorf("%w (index %d: %v)", ErrInvalidValue, i, v)
	}
	return nil
}

// errTooLong is the error of a run trace past the reach of its int32 ends.
func errTooLong(n int) error {
	return fmt.Errorf("trace: %d samples are too many to store as runs", n)
}

// runBuilder gathers the runs of a run trace in order.
type runBuilder struct {
	val []float64
	end []int32
}

// newRunBuilder returns a builder with room for runs runs.
func newRunBuilder(runs int) runBuilder {
	return runBuilder{make([]float64, 0, runs), make([]int32, 0, runs)}
}

// add appends a run of v ending at end (exclusive), extending the last run
// instead when v has its bits.
func (b *runBuilder) add(v float64, end int) {
	if k := len(b.val) - 1; k >= 0 && math.Float64bits(b.val[k]) == math.Float64bits(v) {
		b.end[k] = int32(end)
		return
	}
	b.val = append(b.val, v)
	b.end = append(b.end, int32(end))
}

// trace validates the runs as adopt validates samples, naming a bad run by
// its first sample, and wraps them in a run trace.
func (b *runBuilder) trace() (*Trace, error) {
	if len(b.val) == 0 {
		return nil, ErrEmpty
	}
	max, start := 0.0, 0
	for k, v := range b.val {
		if err := checkSample(start, v); err != nil {
			return nil, err
		}
		if v > max {
			max = v
		}
		start = int(b.end[k])
	}
	return &Trace{n: int(b.end[len(b.end)-1]), runVals: b.val, runEnds: b.end, max: max}, nil
}

// runIndex returns the index of the run holding sample i of a run trace,
// or the last run's for i past the end.
func (t *Trace) runIndex(i int) int {
	lo, hi := 0, len(t.runEnds)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(t.runEnds[m]) > i {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// cursor steps through what a trace stores: one sample at a time on a
// dense trace, one run at a time on a run trace.
type cursor struct {
	t *Trace
	k int
}

// cursorAt returns a cursor at what holds sample i (0 <= i < Len).
func (t *Trace) cursorAt(i int) cursor {
	if t.values != nil {
		return cursor{t, i}
	}
	return cursor{t, t.runIndex(i)}
}

// next returns the value and the exclusive end of the stored sample or
// run at c, and steps past it.
func (c *cursor) next() (float64, int) {
	k := c.k
	c.k++
	if c.t.values != nil {
		return c.t.values[k], k + 1
	}
	return c.t.runVals[k], int(c.t.runEnds[k])
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
func (t *Trace) Len() int { return t.n }

// Fingerprint returns a stable FNV-1a hash of the trace contents (length
// plus every sample bit pattern, as 8 little-endian bytes each), computed
// once per Trace and cached. Two traces with equal samples fingerprint
// equally across processes, whichever way each is stored, which is what
// lets distributed sweep workers and coordinators agree on canonical cell
// identities without exchanging the trace itself.
func (t *Trace) Fingerprint() uint64 {
	t.fpOnce.Do(func() {
		h := fnvWord(fnvOffset, uint64(t.n))
		c := t.cursorAt(0)
		for i := 0; i < t.n; {
			v, end := c.next()
			h = fnvRepeat(h, math.Float64bits(v), end-i)
			i = end
		}
		t.fp = h
	})
	return t.fp
}

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
)

// fnvWord folds the 8 little-endian bytes of w into the FNV-1a state h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ w&0xff) * fnvPrime
		w >>= 8
	}
	return h
}

// fnvRepeat folds k copies of the word w into h. An FNV-1a step's xor
// changes only the low byte of the state, and the next low byte depends
// only on that byte, so folding w maps h to h·p⁸ + c[h mod 256], with p
// the prime and c fixed by w. A long run computes c for each low byte it
// meets, once, and then folds a word with one multiply-add instead of
// eight dependent multiplies.
func fnvRepeat(h, w uint64, k int) uint64 {
	if k < 64 {
		for ; k > 0; k-- {
			h = fnvWord(h, w)
		}
		return h
	}
	var c [256]uint64
	var known [256]bool
	for ; k > 0; k-- {
		l := h & 0xff
		if !known[l] {
			c[l], known[l] = fnvWord(l, w)-l*fnvPrime8, true
		}
		h = h*fnvPrime8 + c[l]
	}
	return h
}

// At returns the load at second i. Out-of-range indices clamp to the trace
// boundary, which lets predictors look past the end without special cases.
func (t *Trace) At(i int) float64 {
	i = min(max(i, 0), t.n-1)
	if t.values != nil {
		return t.values[i]
	}
	return t.runVals[t.runIndex(i)]
}

// Values returns a copy of the samples.
func (t *Trace) Values() []float64 {
	out := make([]float64, t.n)
	c := t.cursorAt(0)
	for i := 0; i < t.n; {
		v, end := c.next()
		for ; i < end; i++ {
			out[i] = v
		}
	}
	return out
}

// Runs fills val and end with the maximal runs of equal samples in
// [from, to), in order: the r-th run holds val[r] on [end[r-1], end[r]),
// from from for r = 0. Neighbouring samples that compare == share a run,
// whose value is its first sample's, so ±0 and neighbours that Scale or
// Quantize made equal fold together, on either storage. It writes at most
// min(len(val), len(end)) runs, each maximal within [from, to), and
// returns how many; when end[n-1] < to the next run starts there. Both
// bounds clamp to the trace. It is the bulk read of the engines: a
// caller's fixed block holds hundreds of runs, so a span is folded without
// a per-second At call or an allocation.
func (t *Trace) Runs(from, to int, val []float64, end []int) int {
	from, to = max(from, 0), min(to, t.n)
	if from >= to {
		return 0
	}
	size, n := min(len(val), len(end)), 0
	if t.values != nil {
		w := t.values[from:to]
		for i := 0; i < len(w) && n < size; n++ {
			d := w[i]
			j := i + 1
			for j < len(w) && w[j] == d {
				j++
			}
			val[n], end[n] = d, from+j
			i = j
		}
		return n
	}
	for k, i := t.runIndex(from), from; i < to; k++ {
		v, e := t.runVals[k], min(int(t.runEnds[k]), to)
		if n > 0 && v == val[n-1] {
			end[n-1] = e
		} else if n < size {
			val[n], end[n] = v, e
			n++
		} else {
			break
		}
		i = e
	}
	return n
}

// Slice returns the subtrace [from, to) (seconds), stored as t is. It
// errors on an empty or out-of-range window.
func (t *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to > t.n || from >= to {
		return nil, fmt.Errorf("trace: invalid slice [%d, %d) of %d samples", from, to, t.n)
	}
	if t.values != nil {
		return New(t.values[from:to])
	}
	k := t.runIndex(from)
	b := newRunBuilder(t.runIndex(to-1) - k + 1)
	c := cursor{t, k}
	for i := from; i < to; {
		v, end := c.next()
		i = min(end, to)
		b.add(v, i-from)
	}
	return b.trace()
}

// Day returns the 1-based day d as a subtrace (the paper indexes World Cup
// days starting at 1).
func (t *Trace) Day(d int) (*Trace, error) {
	return t.Slice((d-1)*SecondsPerDay, d*SecondsPerDay)
}

// Days returns how many complete days the trace covers.
func (t *Trace) Days() int { return t.n / SecondsPerDay }

// Max returns the global maximum load. It is computed once, when the
// trace is built, so per-cell callers pay nothing for it.
func (t *Trace) Max() float64 { return t.max }

// Mean returns the average load.
func (t *Trace) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	sum := 0.0
	c := t.cursorAt(0)
	for i := 0; i < t.n; {
		v, end := c.next()
		// Sample by sample, as a dense sum adds them.
		for ; i < end; i++ {
			sum += v
		}
	}
	return sum / float64(t.n)
}

// MaxInWindow returns the maximum over samples [from, from+width), clamping
// to the trace end — exactly the prediction the paper's scheduler uses
// ("the maximum load value over a window of 378 seconds").
func (t *Trace) MaxInWindow(from, width int) float64 {
	if width <= 0 || t.n == 0 {
		return 0
	}
	from = min(max(from, 0), t.n-1)
	to := min(from+width, t.n)
	max := 0.0
	c := t.cursorAt(from)
	for i := from; i < to; {
		var v float64
		v, i = c.next()
		if v > max {
			max = v
		}
	}
	return max
}

// SlidingMax returns MaxInWindow(i, width) for every i: the dense form of
// SlidingMaxRuns, one value per second.
func (t *Trace) SlidingMax(width int) ([]float64, error) {
	out := make([]float64, t.n)
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
// blocks never exceed the trace. A run trace is walked run by run instead
// (slidingMaxStored), with the same emissions bit for bit.
func (t *Trace) SlidingMaxRuns(width int, emit func(from, to int, max float64)) error {
	if width <= 0 {
		return fmt.Errorf("trace: invalid window width %d", width)
	}
	w := min(width, t.n)
	if t.values == nil {
		t.slidingMaxStored(w, emit)
		return nil
	}
	vals := t.values
	n := len(vals)
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

// slidingMaxStored is SlidingMaxRuns of a run trace, for a width w in
// [1, Len()]. The window maximum changes only where a run enters or leaves
// the window, so a queue of the runs in the window whose value no later
// one reaches (decreasing from its head) yields it one stretch at a time.
// Its bits are the dense kernel's: a positive maximum has one bit pattern,
// and where the maximum is zero the whole window is ±0, and the dense
// kernel reports the suffix maximum of second i's block, which is then
// that block's last sample.
func (t *Trace) slidingMaxStored(w int, emit func(from, to int, max float64)) {
	n, vals, ends := t.n, t.runVals, t.runEnds
	start := func(k int) int {
		if k == 0 {
			return 0
		}
		return int(ends[k-1])
	}
	// The queue's run indices; the live ones from head. It holds at most
	// the runs of one window, and stays on the stack unless they pass 32.
	queue := make([]int32, 0, 32)
	head := 0
	first, in := 0, -1 // the run holding i; the last run in the window
	// The NaN sentinel matches no valid sample, so second 0 opens a run.
	runFrom, runMax, runBits := 0, 0.0, math.Float64bits(math.NaN())
	put := func(from, to int, m float64) {
		if b := math.Float64bits(m); b != runBits {
			if from > 0 {
				emit(runFrom, from, runMax)
			}
			runFrom, runMax, runBits = from, m, b
		}
	}
	for i := 0; i < n; {
		for last := min(i+w, n) - 1; in+1 < len(vals) && start(in+1) <= last; {
			in++
			for len(queue) > head && vals[queue[len(queue)-1]] <= vals[in] {
				queue = queue[:len(queue)-1]
			}
			if len(queue) == cap(queue) && head > 0 {
				queue, head = queue[:copy(queue, queue[head:])], 0
			}
			queue = append(queue, int32(in))
		}
		for int(ends[first]) <= i {
			first++
		}
		for int(queue[head]) < first {
			head++
		}
		// The window is unchanged up to the end of i's run or until the
		// next run enters, whichever comes first.
		next := int(ends[first])
		if in+1 < len(vals) {
			next = min(next, start(in+1)-w+1)
		}
		if m := vals[queue[head]]; m != 0 {
			put(i, next, m)
		} else {
			for j := i; j < next; {
				blockEnd := min((j/w+1)*w, n)
				put(j, min(blockEnd, next), t.At(blockEnd-1))
				j = min(blockEnd, next)
			}
		}
		i = next
	}
	emit(runFrom, n, runMax)
}

// Quantize returns a trace of the same length where each window of width
// seconds is replaced by that window's mean — a piecewise-constant trace
// modeling load known at coarser-than-1 Hz granularity (e.g. per-minute
// aggregated access logs). The trailing partial window averages its own
// samples. The result is a run trace. Quantized traces are what make the
// event-driven simulator dramatically faster than the 1 Hz tick loop:
// fewer load changes means fewer events.
func (t *Trace) Quantize(width int) (*Trace, error) {
	if width <= 0 {
		return nil, fmt.Errorf("trace: invalid quantize width %d", width)
	}
	if t.n > math.MaxInt32 {
		return nil, errTooLong(t.n)
	}
	b := newRunBuilder((t.n-1)/width + 1)
	c := t.cursorAt(0)
	v, end := c.next()
	for start := 0; start < t.n; start += width {
		stop := min(start+width, t.n)
		sum := 0.0
		for i := start; i < stop; i++ {
			if i == end {
				v, end = c.next()
			}
			sum += v
		}
		b.add(sum/float64(stop-start), stop)
	}
	return b.trace()
}

// Scale returns a copy with every sample multiplied by f (>= 0), stored as
// t is.
func (t *Trace) Scale(f float64) (*Trace, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("trace: invalid scale factor %v", f)
	}
	if t.values == nil {
		b := newRunBuilder(len(t.runVals))
		for k, v := range t.runVals {
			b.add(v*f, int(t.runEnds[k]))
		}
		return b.trace()
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
	s := Stats{Samples: t.n, Max: t.Max(), Mean: t.Mean()}
	if t.n == 0 {
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
