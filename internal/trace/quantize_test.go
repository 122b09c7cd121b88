package trace

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// runsOf returns the runs Runs reports for [from, to), gathered through a
// block of size slots.
func runsOf(tr *Trace, from, to, size int) (vals []float64, ends []int) {
	val, end := make([]float64, size), make([]int, size)
	for i := max(from, 0); i < min(to, tr.Len()); {
		n := tr.Runs(i, to, val, end)
		if n == 0 {
			panic("Runs made no progress")
		}
		vals, ends = append(vals, val[:n]...), append(ends, end[:n]...)
		i = end[n-1]
	}
	return vals, ends
}

// asRuns returns tr stored as runs, sample for sample.
func asRuns(tb testing.TB, tr *Trace) *Trace {
	tb.Helper()
	b := newRunBuilder(0)
	for i, v := range tr.Values() {
		b.add(v, i+1)
	}
	out, err := b.trace()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// quantizeReference is Quantize as it was when it kept every sample: the
// window means written into a dense trace.
func quantizeReference(tr *Trace, width int) (*Trace, error) {
	if width <= 0 {
		return nil, fmt.Errorf("trace: invalid quantize width %d", width)
	}
	src := tr.Values()
	for start := 0; start < len(src); start += width {
		end := min(start+width, len(src))
		sum := 0.0
		for _, v := range src[start:end] {
			sum += v
		}
		mean := sum / float64(end-start)
		for i := start; i < end; i++ {
			src[i] = mean
		}
	}
	return adopt(src)
}

// nextChange returns the first index after at whose sample differs from at's:
// the end of the first run Runs reports from at, or Len when there is none.
func nextChange(tr *Trace, at int) int {
	var val [1]float64
	var end [1]int
	if tr.Runs(at, tr.Len(), val[:], end[:]) == 0 {
		return tr.Len()
	}
	return end[0]
}

// TestNextChange pins where each run Runs reports ends, from every start,
// on dense and run storage alike.
func TestNextChange(t *testing.T) {
	dense := MustNew([]float64{1, 1, 1, 2, 2, 3, 3, 3})
	cases := []struct{ at, want int }{
		{0, 3}, {1, 3}, {2, 3}, {3, 5}, {4, 5}, {5, 8}, {7, 8},
		{-4, 3}, // clamps like At
		{99, 8}, // past the end
	}
	for name, tr := range map[string]*Trace{"dense": dense, "runs": asRuns(t, dense)} {
		for _, c := range cases {
			if got := nextChange(tr, c.at); got != c.want {
				t.Errorf("%s: next change after %d = %d, want %d", name, c.at, got, c.want)
			}
		}
	}
	flat := MustNew(make([]float64, 50))
	for name, tr := range map[string]*Trace{"dense": flat, "runs": asRuns(t, flat)} {
		if got := nextChange(tr, 0); got != 50 {
			t.Errorf("%s: constant trace next change = %d, want len", name, got)
		}
	}
}

// TestWindow pins the runs Runs reports over a span [from, to), which clamps
// to the trace, through blocks of every size.
func TestWindow(t *testing.T) {
	dense := MustNew([]float64{1, 1, 1, 2, 2, 3, 3, 3})
	cases := []struct {
		from, to int
		vals     []float64
		ends     []int
	}{
		{0, 8, []float64{1, 2, 3}, []int{3, 5, 8}},
		{1, 4, []float64{1, 2}, []int{3, 4}},
		{5, 8, []float64{3}, []int{8}},
		{-4, 2, []float64{1}, []int{2}}, // from clamps like At
		{6, 99, []float64{3}, []int{8}}, // to clamps
		{3, 3, nil, nil},                // empty
		{5, 1, nil, nil},                // inverted
		{9, 12, nil, nil},               // past the end
	}
	for name, tr := range map[string]*Trace{"dense": dense, "runs": asRuns(t, dense)} {
		for _, size := range []int{1, 2, 256} {
			for _, c := range cases {
				vals, ends := runsOf(tr, c.from, c.to, size)
				if !reflect.DeepEqual(vals, c.vals) || !reflect.DeepEqual(ends, c.ends) {
					t.Errorf("%s, block %d: Runs(%d, %d) = %v ending %v, want %v ending %v", name, size, c.from, c.to, vals, ends, c.vals, c.ends)
				}
			}
		}
	}
	var val [4]float64
	var end [4]int
	if n := dense.Runs(0, 8, val[:0], end[:]); n != 0 {
		t.Errorf("Runs into an empty block = %d, want 0", n)
	}
}

// TestRunsBoundaries pins Runs at the trace edges the interval integrator
// leans on: the single-sample trace, the final sample, per-second runs of
// length one (a raw un-quantized trace), and ±0, which compare equal and
// share a run whose value is its first sample's.
func TestRunsBoundaries(t *testing.T) {
	if vals, ends := runsOf(MustNew([]float64{7}), -3, 99, 4); !reflect.DeepEqual(vals, []float64{7}) || !reflect.DeepEqual(ends, []int{1}) {
		t.Errorf("single sample: %v ending %v", vals, ends)
	}
	if _, ends := runsOf(MustNew([]float64{1, 1, 2}), 0, 3, 4); !reflect.DeepEqual(ends, []int{2, 3}) {
		t.Errorf("distinct final sample: runs end at %v, want [2 3]", ends)
	}
	if _, ends := runsOf(MustNew([]float64{1, 2, 3, 4}), 0, 4, 3); !reflect.DeepEqual(ends, []int{1, 2, 3, 4}) {
		t.Errorf("raw trace: runs end at %v, want one per second", ends)
	}
	zeros := MustNew([]float64{math.Copysign(0, -1), 0, 0, 5})
	for name, tr := range map[string]*Trace{"dense": zeros, "runs": asRuns(t, zeros)} {
		vals, ends := runsOf(tr, 0, 4, 1)
		if len(vals) != 2 || !math.Signbit(vals[0]) || vals[1] != 5 || !reflect.DeepEqual(ends, []int{3, 4}) {
			t.Errorf("%s: ±0 runs = %v ending %v, want [-0 5] ending [3 4]", name, vals, ends)
		}
	}
}

func TestQuantize(t *testing.T) {
	tr := MustNew([]float64{0, 2, 4, 6, 10, 20, 30, 40, 5})
	q, err := tr.Quantize(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 3, 3, 3, 25, 25, 25, 25, 5}
	for i, w := range want {
		if math.Abs(q.At(i)-w) > 1e-12 {
			t.Errorf("quantized[%d] = %v, want %v", i, q.At(i), w)
		}
	}
	if q.Len() != tr.Len() {
		t.Errorf("length changed: %d vs %d", q.Len(), tr.Len())
	}
	// Quantizing preserves the mean exactly up to rounding.
	if math.Abs(q.Mean()-tr.Mean()) > 1e-9 {
		t.Errorf("mean drifted: %v vs %v", q.Mean(), tr.Mean())
	}
	if _, err := tr.Quantize(0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := tr.Quantize(-3); err == nil {
		t.Error("negative width accepted")
	}
}

// TestQuantizeBoundaries pins Quantize at the window edges: width 1 must be
// the exact identity, widths at or beyond the trace length collapse to one
// window, and a trailing partial window of a single sample preserves that
// sample bit-for-bit.
func TestQuantizeBoundaries(t *testing.T) {
	tr := MustNew([]float64{0.1, 0.2, 0.3, 0.4, 0.5})

	q1, err := tr.Quantize(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if q1.At(i) != tr.At(i) {
			t.Errorf("Quantize(1)[%d] = %v, want exact identity %v", i, q1.At(i), tr.At(i))
		}
	}

	for _, width := range []int{tr.Len(), tr.Len() + 1, 1000} {
		q, err := tr.Quantize(width)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Mean()
		for i := 0; i < q.Len(); i++ {
			if math.Abs(q.At(i)-want) > 1e-15 {
				t.Errorf("Quantize(%d)[%d] = %v, want whole-trace mean %v", width, i, q.At(i), want)
			}
		}
	}

	// len 5, width 4: trailing partial window holds exactly one sample and
	// must reproduce it exactly (mean of one value divides by 1).
	q, err := tr.Quantize(4)
	if err != nil {
		t.Fatal(err)
	}
	if q.At(4) != tr.At(4) {
		t.Errorf("trailing singleton window = %v, want exact %v", q.At(4), tr.At(4))
	}

	single := MustNew([]float64{42})
	qs, err := single.Quantize(10)
	if err != nil {
		t.Fatal(err)
	}
	if qs.At(0) != 42 {
		t.Errorf("single-sample Quantize = %v, want 42", qs.At(0))
	}
}

func TestQuantizeSparsifiesChanges(t *testing.T) {
	cfg := DefaultWorldCupConfig()
	cfg.Days = 1
	cfg.Seed = 5
	tr, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := tr.Quantize(300)
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := runsOf(q, 0, q.Len(), 256)
	changes := len(vals)
	if maxChanges := q.Len()/300 + 2; changes > maxChanges {
		t.Errorf("quantized trace has %d change points, want ≤ %d", changes, maxChanges)
	}
}
