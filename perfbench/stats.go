package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer make the tail a reading of one or two outliers.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so quartiles printed here match the ones computed from the JSON
// results with Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		// Python's integer arithmetic, including its clamp of j to
		// 1..ld-1 (which extrapolates for very small samples).
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile of xs and whether it
// may be reported: at least minTail samples must lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(n) * p / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally accounts for the operations a run attempted and the ways each can
// fail: a cell whose simulation returned an error, an HTTP call that did
// not get a 2xx answer (or no answer), and a cell whose output disagrees
// with the workload's correctness oracle.
type tally struct {
	cells, httpCalls                      int // attempted
	failedCells, failedHTTP, wrongResults int
}

func (t tally) attempted() int { return t.cells + t.httpCalls }

// failed never exceeds attempted: a cell that errored and then also fails
// the check is one failure, not two.
func (t tally) failed() int {
	f := t.failedCells + t.failedHTTP + t.wrongResults
	if a := t.attempted(); f > a {
		return a
	}
	return f
}

func (t tally) errorRate() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}
