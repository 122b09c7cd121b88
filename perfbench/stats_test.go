package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4), which judge the benchmark's spread.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates here
		{[]float64{5.0, 1.5, 9.25, 2.0, 7.75}, 1.75, 5.0, 8.5},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.med, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, reportable (10 beyond)", v, ok)
	}
	if v, ok := percentile(xs, 99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v, %v; want 99, not reportable (1 beyond)", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has 9 beyond: not reportable")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "paper.run", Start: 0, End: ms(100), Alloc: 100},
		// Overlapping children (two goroutines) count once where they
		// overlap; a child running past its parent is clipped.
		{ID: 2, Parent: 1, Name: "cache.get", Start: ms(10), End: ms(30), Alloc: 30},
		{ID: 3, Parent: 1, Name: "cache.put", Start: ms(20), End: ms(50), Alloc: 20},
		{ID: 4, Parent: 1, Name: "stream.emit", Start: ms(90), End: ms(120), Alloc: 10},
		// A grandchild is its parent's business only.
		{ID: 5, Parent: 3, Name: "stream.encode", Start: ms(25), End: ms(45), Alloc: 50},
	}
	self, alloc := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(10), 4: ms(30), 5: ms(20)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	if alloc[1] != 40 || alloc[3] != 0 {
		t.Errorf("self alloc = %v, want span 1 40, span 3 floored to 0", alloc)
	}

	rows, uncovered := whereTimeGoes(spans, ms(150))
	byLayer := map[string]layerRow{}
	for _, r := range rows {
		byLayer[r.Layer] = r
	}
	if r := byLayer["cache"]; r.Calls != 2 || r.Self != ms(30) {
		t.Errorf("cache row = %+v, want 2 calls, 30ms", r)
	}
	if r := byLayer["stream"]; r.Calls != 2 || r.Self != ms(50) {
		t.Errorf("stream row = %+v, want 2 calls, 50ms", r)
	}
	if rows[0].Layer != "stream" && rows[0].Layer != "paper" {
		t.Errorf("rows not sorted by self time: %+v", rows)
	}
	if uncovered != ms(50) {
		t.Errorf("uncovered = %v, want 50ms (wall 150 - root span 100)", uncovered)
	}
}

func TestErrorRateAccounting(t *testing.T) {
	tl := tally{cells: 90, httpCalls: 10, failedCells: 2, failedHTTP: 1, wrongResults: 2}
	if tl.attempted() != 100 || tl.failed() != 5 || tl.errorRate() != 0.05 {
		t.Errorf("got %d failed of %d (%v), want 5 of 100 (0.05)", tl.failed(), tl.attempted(), tl.errorRate())
	}
	// A cell that both errors and fails the check cannot push failures
	// past what was attempted.
	over := tally{cells: 4, failedCells: 4, wrongResults: 4}
	if over.failed() != 4 || over.errorRate() != 1 {
		t.Errorf("got %d failed, rate %v; want 4, 1", over.failed(), over.errorRate())
	}
	if (tally{}).errorRate() != 0 {
		t.Error("nothing attempted should read 0")
	}
}
