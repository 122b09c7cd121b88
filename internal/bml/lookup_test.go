package bml

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// clampedIndex is the oracle for a lookup's grid index: demand rounded up to
// the grid, NaN and non-positive rates at index 0, everything past maxIdx
// at maxIdx.
func clampedIndex(rate, step float64, maxIdx int) int {
	if math.IsNaN(rate) || rate <= 0 {
		return 0
	}
	if rate >= float64(maxIdx)*step {
		return maxIdx
	}
	k := int(math.Ceil(rate/step - 1e-9))
	if k > maxIdx {
		k = maxIdx
	}
	return k
}

// TestLookupMatchesFreshCombination holds every lookup of one shared
// planner to a freshly computed Combination(k·step) at the clamped grid
// index, from eight goroutines at once, for random ranges below the memo
// cap, past it and at fleet scale, at rates on and just off the grid, at
// zero, negative and out-of-range rates.
func TestLookupMatchesFreshCombination(t *testing.T) {
	for _, step := range []float64{1, 0.5, 2.5} {
		p := newPaperPlanner(t, WithStep(step))
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 60; i++ {
					var maxRate float64
					switch i % 3 {
					case 0:
						maxRate = rng.Float64() * 5000
					case 1:
						maxRate = float64(memoCap)*step*0.9 + rng.Float64()*float64(memoCap)*step*0.2
					default:
						maxRate = rng.Float64() * 2e7
					}
					maxIdx := int(math.Ceil(maxRate/step - 1e-9))
					lk := p.Lookup(maxRate)
					k := rng.Intn(maxIdx + 1)
					rates := []float64{
						0, -1, -rng.Float64() * 1e6,
						float64(k) * step, float64(k)*step + 1e-10, float64(k)*step + step/2,
						maxRate, maxRate + 1, maxRate * (1 + rng.Float64()), 1e300,
						math.Inf(1), math.Inf(-1), math.NaN(),
					}
					for _, r := range rates {
						want := p.Combination(float64(clampedIndex(r, step, maxIdx)) * step)
						if got := lk.At(r); !reflect.DeepEqual(got, want) {
							errs <- fmt.Sprintf("step %v max %v rate %v: got %v, want %v", step, maxRate, r, got, want)
							return
						}
					}
				}
			}(int64(g) + 1)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestLookupMemoBounded checks that lookups past the memo cap are answered
// without being stored.
func TestLookupMemoBounded(t *testing.T) {
	p := newPaperPlanner(t)
	lk := p.Lookup(1e7)
	for _, r := range []float64{memoCap, memoCap + 1, 5e6, 1e7, math.Inf(1)} {
		lk.At(r)
	}
	for i := range p.memo {
		if p.memo[i].Load() != nil {
			t.Fatalf("memo chunk %d allocated by lookups at or past the cap", i)
		}
	}
	lk.At(memoCap - 1)
	if p.memo[len(p.memo)-1].Load() == nil {
		t.Error("lookup below the cap not memoized")
	}
}

// TestOutOfRangeRatesClamp is the regression test for rates a table could
// not index: NaN, +Inf and huge rates used to panic in the dense table and
// the exact solver (their index overflowed int), and the lazy table
// answered +Inf and 1e300 with the empty combination instead of clamping.
// Rates at or past the maximum clamp to it; NaN and non-positive rates
// read index 0, like Planner.Combination(NaN).
func TestOutOfRangeRatesClamp(t *testing.T) {
	p := newPaperPlanner(t)
	lk := p.Lookup(500)
	top := p.Combination(500)
	for _, r := range []float64{500, 500.5, 1e300, math.Inf(1)} {
		if got := lk.At(r); !reflect.DeepEqual(got, top) {
			t.Errorf("Lookup(500).At(%v) = %v, want the maximum %v", r, got, top)
		}
	}
	empty := p.Combination(math.NaN())
	for _, r := range []float64{math.NaN(), math.Inf(-1), -1, 0} {
		if got := lk.At(r); !reflect.DeepEqual(got, empty) {
			t.Errorf("Lookup(500).At(%v) = %v, want the empty combination", r, got)
		}
	}

	s, err := NewExactSolver(paperCandidates(t), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefExactTable(paperCandidates(t), 500, 1)
	for _, r := range []float64{1e300, math.Inf(1)} {
		if got, want := s.PowerAt(r), s.PowerAt(500); got != want {
			t.Errorf("PowerAt(%v) = %v, want the maximum's %v", r, got, want)
		}
		if got, want := ref.combinationAt(r), ref.combinationAt(500); !reflect.DeepEqual(got, want) {
			t.Errorf("CombinationAt(%v) = %v, want %v", r, got, want)
		}
	}
	for _, r := range []float64{math.NaN(), math.Inf(-1)} {
		if got := s.PowerAt(r); got != 0 {
			t.Errorf("PowerAt(%v) = %v, want 0", r, got)
		}
		if got := ref.combinationAt(r); got.TotalNodes() != 0 {
			t.Errorf("CombinationAt(%v) = %v, want empty", r, got)
		}
	}
}
