package bml

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/profile"
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

// lookupPlanners are the planners the lookup tests cover: the paper's
// candidates, a half-unit grid, Step 3 thresholds, a coarse grid, and an
// inventory whose demand past capacity leaves an uncovered remainder.
func lookupPlanners(t *testing.T) map[string]*Planner {
	t.Helper()
	inv, err := NewPlanner(profile.PaperMachines(), WithInventory(map[string]int{
		profile.Paravance: 40, profile.Chromebook: 2, profile.Raspberry: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Planner{
		"paper":       newPaperPlanner(t),
		"step=0.5":    newPaperPlanner(t, WithStep(0.5)),
		"homogeneous": newPaperPlanner(t, WithThresholdMode(Homogeneous)),
		"step=2.5":    newPaperPlanner(t, WithStep(2.5)),
		"inventory":   inv,
	}
}

// inParallel runs f(g) for g in [0, 8) on eight goroutines at once and
// reports every error they return.
func inParallel(t *testing.T, f func(g int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = f(g)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestLookupMatchesFreshCombination holds Counts of one shared lookup per
// planner to the Slot.Nodes() of a fresh Combination(k·step), and to the
// memoized oracle lookup, at every grid index in [0, 140,000] and at
// 10,000 random indices up to 10⁶ (625,000 included), from eight
// goroutines at once. It then holds lookups over random ranges — below
// the old memo cap, around it and at fleet scale — to the clamped index at
// rates on and just off the grid, at zero, negative and out-of-range
// rates.
func TestLookupMatchesFreshCombination(t *testing.T) {
	const dense, top, random = 140_000, 1_000_000, 10_000
	for name, p := range lookupPlanners(t) {
		lk := p.Lookup(top * p.step)
		ref := newRefLookup(p, top*p.step)
		check := func(k int, dst []int) ([]int, error) {
			r := float64(k) * p.step
			dst = lk.Counts(r, dst)
			if want := p.Combination(r).nodes(); !slices.Equal(dst, want) {
				return dst, fmt.Errorf("%s: Counts(%v) = %v, fresh Combination %v", name, r, dst, want)
			}
			if want := ref.at(r).nodes(); !slices.Equal(dst, want) {
				return dst, fmt.Errorf("%s: Counts(%v) = %v, oracle %v", name, r, dst, want)
			}
			return dst, nil
		}
		inParallel(t, func(g int) error {
			var dst []int
			var err error
			for k := g; k <= dense; k += 8 {
				if dst, err = check(k, dst); err != nil {
					return err
				}
			}
			rng := rand.New(rand.NewSource(int64(g) + 1))
			ks := []int{625_000, top}
			for range random / 8 {
				ks = append(ks, rng.Intn(top+1))
			}
			for _, k := range ks {
				if dst, err = check(k, dst); err != nil {
					return err
				}
			}
			return nil
		})

		step := p.step
		inParallel(t, func(g int) error {
			rng := rand.New(rand.NewSource(int64(g) + 100))
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
					want := p.Combination(float64(clampedIndex(r, step, maxIdx)) * step).nodes()
					if got := lk.Counts(r, nil); !slices.Equal(got, want) {
						return fmt.Errorf("%s: max %v rate %v: got %v, want %v", name, maxRate, r, got, want)
					}
				}
			}
			return nil
		})
	}
}

// TestCombinationMatchesOracle holds Planner.Combination, slots, partial
// load and infeasible remainder, to the placement it replaced at every
// grid rate up to 20,000 units, at rates just off the grid and at random
// fleet-scale rates.
func TestCombinationMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, p := range lookupPlanners(t) {
		rates := []float64{math.NaN(), math.Inf(-1), -3, 0}
		for k := 0; k <= 20_000; k++ {
			r := float64(k) * p.step
			rates = append(rates, r, r+1e-10, r+p.step/3)
		}
		for range 2000 {
			rates = append(rates, rng.Float64()*1e7)
		}
		for _, r := range rates {
			if got, want := p.Combination(r), refCombination(p, r); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Combination(%v) = %#v, oracle %#v", name, r, got, want)
			}
		}
	}
}

// TestLookupCountsAllocatesNothing: Counts into a vector that holds every
// candidate allocates nothing, at paper scale and at fleet scale.
func TestLookupCountsAllocatesNothing(t *testing.T) {
	p := newPaperPlanner(t)
	lk := p.Lookup(1e6)
	dst := make([]int, 0, len(p.Candidates()))
	for _, rate := range []float64{5000, 625_000} {
		if a := testing.AllocsPerRun(100, func() { dst = lk.Counts(rate, dst) }); a != 0 {
			t.Errorf("Counts(%v) allocates %v times", rate, a)
		}
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
	top := p.Combination(500).nodes()
	for _, r := range []float64{500, 500.5, 1e300, math.Inf(1)} {
		if got := lk.Counts(r, nil); !slices.Equal(got, top) {
			t.Errorf("Lookup(500).Counts(%v) = %v, want the maximum's %v", r, got, top)
		}
	}
	empty := p.Combination(math.NaN()).nodes()
	for _, r := range []float64{math.NaN(), math.Inf(-1), -1, 0} {
		if got := lk.Counts(r, nil); !slices.Equal(got, empty) {
			t.Errorf("Lookup(500).Counts(%v) = %v, want no nodes", r, got)
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

// TestPlannerPowerAtMatchesCombination holds PowerAt, which prices the
// placement without building a Combination, to Combination(rate).Power()
// bit for bit, on the lookup planners and on one with more candidates
// than PowerAt's stack count vector holds.
func TestPlannerPowerAtMatchesCombination(t *testing.T) {
	planners := lookupPlanners(t)
	var many []profile.Arch
	for i := 0; i < 10; i++ {
		many = append(many, profile.Arch{
			Name: fmt.Sprintf("c%d", i), MaxPerf: float64(10 + 7*i),
			IdlePower: power.Watts(1 + i), MaxPower: power.Watts(5 + 4*i),
		})
	}
	wide, err := NewPlanner(many, WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	planners["ten candidates"] = wide
	rng := rand.New(rand.NewSource(9))
	for name, p := range planners {
		rates := []float64{math.NaN(), math.Inf(-1), -1, 0, 1e-12, 1e7}
		for i := 0; i < 3000; i++ {
			rates = append(rates, float64(i)*0.5, rng.Float64()*5000)
		}
		for _, r := range rates {
			if got, want := p.PowerAt(r), p.Combination(r).Power(); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: PowerAt(%v) = %v, Combination power %v", name, r, got, want)
			}
		}
	}
}
