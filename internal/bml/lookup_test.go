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
	for _, r := range []float64{1e300, math.Inf(1)} {
		if got, want := s.PowerAt(r), s.PowerAt(500); got != want {
			t.Errorf("PowerAt(%v) = %v, want the maximum's %v", r, got, want)
		}
		if got, want := s.CombinationAt(r), s.CombinationAt(500); !reflect.DeepEqual(got, want) {
			t.Errorf("CombinationAt(%v) = %v, want %v", r, got, want)
		}
	}
	for _, r := range []float64{math.NaN(), math.Inf(-1)} {
		if got := s.PowerAt(r); got != 0 {
			t.Errorf("PowerAt(%v) = %v, want 0", r, got)
		}
		if got := s.CombinationAt(r); got.TotalNodes() != 0 {
			t.Errorf("CombinationAt(%v) = %v, want empty", r, got)
		}
	}
}

// TestExactPrefixMatchesFreshSolver holds a prefix view of a large solver
// to a fresh NewExactSolver of the view's range at random in-range rates
// and at the clamping edge.
func TestExactPrefixMatchesFreshSolver(t *testing.T) {
	cands := paperCandidates(t)
	big, err := NewExactSolver(cands, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		maxRate := rng.Float64() * 20000
		if i == 0 {
			maxRate = 0
		}
		view, ok := big.Prefix(maxRate)
		if !ok {
			t.Fatalf("Prefix(%v) of a 20000 solver refused", maxRate)
		}
		fresh, err := NewExactSolver(cands, maxRate, 1)
		if err != nil {
			t.Fatal(err)
		}
		if view.MaxRate() != fresh.MaxRate() {
			t.Fatalf("Prefix(%v).MaxRate = %v, fresh %v", maxRate, view.MaxRate(), fresh.MaxRate())
		}
		for j := 0; j < 50; j++ {
			r := rng.Float64() * maxRate
			switch j {
			case 0:
				r = maxRate
			case 1:
				r = math.Ceil(maxRate) + 0.5
			case 2:
				r = 1e300
			}
			if got, want := view.PowerAt(r), fresh.PowerAt(r); got != want {
				t.Fatalf("max %v rate %v: prefix power %v, fresh %v", maxRate, r, got, want)
			}
			if got, want := view.CombinationAt(r), fresh.CombinationAt(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("max %v rate %v: prefix %v, fresh %v", maxRate, r, got, want)
			}
		}
	}
	for _, bad := range []float64{20001, math.NaN(), math.Inf(1), -1} {
		if _, ok := big.Prefix(bad); ok {
			t.Errorf("Prefix(%v) of a 20000 solver accepted", bad)
		}
	}
}
