package sim

import (
	"fmt"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/trace"
)

// This file holds the fold kernel of the static scenarios (UpperBound
// Global, UpperBound PerDay, LowerBound). Their draw is a pure function of
// the instantaneous load and a per-day constant sizing, so foldStatic walks
// the trace one day window at a time: the day's sizings are computed once,
// each maximal run of equal samples is one closed-form interval, and the
// accumulators live in locals until the day ends. One walk folds any
// subset of the three scenarios. RunAll folds all three, so each run is
// found once, the fleet packing that both UpperBounds share is computed
// once, and the QoS integral, the same for every scenario that serves the
// day in full, is folded once. The single-scenario Run functions fold one.
//
// The runs are exactly the intervals of the per-sample event loop the
// kernel replaced (trace changes and day edges), and every scenario
// performs the float operations of that loop on every run in the same
// order — e = P·dt, the plain Breakdown adds, the Neumaier adds into the
// total and the day bucket, and the QoS adds of one Observe — so the
// kernel is bit-identical to it, not merely within a tolerance, whichever
// scenarios share a walk. static_reference_test.go keeps that loop as the
// reference and compares every Result field with ==.

// daySums carries a Result's compensated energy sums through one day's
// fold: the run total and the day bucket, each with its Neumaier term. The
// kernel updates its fields in place, as Result.addEnergy does, rather
// than through a method: two NeumaierAdds exceed the inlining budget.
type daySums struct {
	total, totalComp float64
	day, dayComp     float64
}

// openDay loads the sums a fold of day starts from. A trailing partial
// day has no bucket, as Result.addEnergy credits none past the last
// complete day: its day sum is folded and then dropped by closeDay.
func (r *Result) openDay(day int) daySums {
	s := daySums{total: float64(r.TotalEnergy), totalComp: r.totalComp}
	if day < len(r.DailyEnergy) {
		s.day, s.dayComp = float64(r.DailyEnergy[day]), r.dailyComp[day]
	}
	return s
}

// closeDay stores the sums of a finished day fold back into r.
func (r *Result) closeDay(day int, s daySums) {
	r.TotalEnergy, r.totalComp = power.Joules(s.total), s.totalComp
	if day < len(r.DailyEnergy) {
		r.DailyEnergy[day], r.dailyComp[day] = power.Joules(s.day), s.dayComp
	}
}

// The slots of a foldStatic walk, in scenario order.
const (
	slotGlobal = iota // UpperBound Global
	slotPerDay        // UpperBound PerDay
	slotLower         // LowerBound Theoretical
	staticSlots
)

// staticNames are the Result names of the static slots.
var staticNames = [staticSlots]string{"UpperBound Global", "UpperBound PerDay", "LowerBound Theoretical"}

// runStaticSlot folds one static scenario alone.
func runStaticSlot(tr *trace.Trace, big profile.Arch, solver *bml.ExactSolver, slot int) (*Result, error) {
	var want [staticSlots]bool
	want[slot] = true
	res, errs := foldStatic(tr, big, solver, want)
	return res[slot], errs[slot]
}

// upperBoundFold is one UpperBound scenario of a foldStatic walk: its
// sizing, the fleet of the current day, and its accumulators.
type upperBoundFold struct {
	res  *Result // nil when the slot is empty or its scenario has failed
	size func(day int) int

	nodes     int
	capacity  float64
	idle      float64 // the fleet's idle draw
	saturated float64 // the fleet's draw when demand exceeds capacity

	sums            daySums
	bIdle, bDynamic power.Joules

	// own is set from the first day whose capacity falls short of the
	// day's peak: res.QoS then leaves the shared chain and observes every
	// run itself.
	own bool
}

// openDay sizes u's fleet for day, whose peak load is peak, and loads the
// day's energy sums. shared is the shared QoS chain at the day's start,
// which u copies if it now leaves the chain.
func (u *upperBoundFold) openDay(day int, peak float64, big profile.Arch, shared qos.Tracker) {
	maxPower, idlePower := float64(big.MaxPower), float64(big.IdlePower)
	u.nodes = u.size(day)
	u.capacity = float64(u.nodes) * big.MaxPerf
	u.idle = float64(u.nodes) * idlePower
	u.saturated = packLoad(u.capacity, big.MaxPerf, maxPower, idlePower).draw(u.nodes, maxPower, idlePower)
	u.sums = u.res.openDay(day)
	if !u.own && !(u.capacity >= peak) {
		u.own = true
		u.res.QoS = shared
	}
}

// add folds a block of runs, drawing p[r] for dt[r] seconds, into u's
// energy and Breakdown, and observes them when u is off the shared chain.
func (u *upperBoundFold) add(p, demand, dt []float64) error {
	s, bIdle, bDynamic, idle := u.sums, u.bIdle, u.bDynamic, u.idle
	for r, pr := range p {
		if !power.Watts(pr).IsValid() {
			return power.ErrNegativePower
		}
		d := dt[r]
		bIdle += power.Joules(idle * d)
		bDynamic += power.Joules((pr - idle) * d)
		e := float64(pr * d)
		s.total, s.totalComp = power.NeumaierAdd(s.total, s.totalComp, e)
		s.day, s.dayComp = power.NeumaierAdd(s.day, s.dayComp, e)
	}
	u.sums, u.bIdle, u.bDynamic = s, bIdle, bDynamic
	if u.own {
		return u.res.QoS.ObserveRuns(demand, dt, u.capacity)
	}
	return nil
}

// addLower folds a block of LowerBound runs, drawing p[r] for dt[r]
// seconds, into s.
func addLower(s *daySums, p, dt []float64) error {
	sums := *s
	for r, pr := range p {
		if !power.Watts(pr).IsValid() {
			return power.ErrNegativePower
		}
		e := float64(pr * dt[r])
		sums.total, sums.totalComp = power.NeumaierAdd(sums.total, sums.totalComp, e)
		sums.day, sums.dayComp = power.NeumaierAdd(sums.day, sums.dayComp, e)
	}
	*s = sums
	return nil
}

// foldStatic integrates the static scenarios whose slots are set in want
// (slotGlobal, slotPerDay, slotLower; big sizes the first two, solver
// prices the third) in one walk per day and returns their finalized
// results: each run of equal samples is found once and priced once per
// scenario, and every scenario keeps its own energy and Breakdown
// accumulators with the adds of its own loop.
//
// Every scenario serves a day in full when its capacity is at least the
// day's peak, which always holds for the LowerBound. While it does, its
// QoS adds are those of one shared chain, seconds += dt and demand·dt into
// one compensated sum: the served integral equals the demand integral bit
// for bit and no run is a violation (qos.FullyServed). An UpperBound whose
// capacity first falls short on some day (PerDay's trailing partial day)
// takes a copy of the chain at that day's start and observes every run
// through qos.Tracker.ObserveRuns from then on.
//
// A scenario that fails returns a nil result and its error in its slot,
// and drops out of the walk; the others run to the end.
func foldStatic(tr *trace.Trace, big profile.Arch, solver *bml.ExactSolver, want [staticSlots]bool) (res [staticSlots]*Result, errs [staticSlots]error) {
	for k, w := range want {
		if w {
			res[k] = newResult(staticNames[k], tr.Days())
		}
	}
	maxPerf, maxPower, idlePower := big.MaxPerf, float64(big.MaxPower), float64(big.IdlePower)
	var ub [slotLower]upperBoundFold
	var peaks []float64 // the daily peaks, which PerDay sizes from
	if res[slotGlobal] != nil {
		ub[slotGlobal].res, ub[slotGlobal].size = res[slotGlobal], globalSizing(tr, big)
	}
	if res[slotPerDay] != nil {
		peaks = tr.DailyPeaks()
		ub[slotPerDay].res, ub[slotPerDay].size = res[slotPerDay], perDaySizing(peaks, big)
	}
	lower := res[slotLower]

	// The shared QoS chain of every scenario that has served each run so
	// far in full.
	var seconds float64
	var demand power.Accumulator

	// A block of runs is priced before it is folded. Pricing a block first
	// keeps each scenario's adds in a loop of their own and lets an
	// UpperBound off the shared chain observe the whole block in one
	// ObserveRuns call. A block never spans a day, whose sizing it shares,
	// and its 12 KiB stay on the stack.
	var blk struct {
		runBlock
		dt [blockRuns]float64
		p  [staticSlots][blockRuns]float64
	}
	for day := 0; day*trace.SecondsPerDay < tr.Len(); day++ {
		dayEnd := min((day+1)*trace.SecondsPerDay, tr.Len())
		// Without the daily peaks, the global one bounds every day's.
		peak := tr.Max()
		if day < len(peaks) {
			peak = peaks[day]
		} else if peaks != nil {
			peak = tr.MaxInWindow(day*trace.SecondsPerDay, trace.SecondsPerDay)
		}
		shared := lower != nil // whether any scenario is on the shared chain
		hasUB := false
		for k := range ub {
			if u := &ub[k]; u.res != nil {
				u.openDay(day, peak, big, qos.FullyServed(seconds, demand))
				shared = shared || !u.own
				hasUB = true
			}
		}
		var ls daySums
		if lower != nil {
			ls = lower.openDay(day)
		}

		for i := day * trace.SecondsPerDay; i < dayEnd; {
			runs := blk.fill(tr, i, dayEnd)
			n := len(runs)
			for r, d := range runs {
				blk.dt[r] = float64(blk.end[r] - i)
				if hasUB {
					// Below a fleet's capacity it serves the demand itself,
					// whose packing does not depend on the fleet size: it
					// is computed once for both fleets.
					pk := packLoad(d, maxPerf, maxPower, idlePower)
					for k := range ub {
						if ub[k].res == nil {
							continue
						}
						p := ub[k].saturated
						if d <= ub[k].capacity {
							p = pk.draw(ub[k].nodes, maxPower, idlePower)
						}
						blk.p[k][r] = p
					}
				}
				if lower != nil {
					blk.p[slotLower][r] = float64(solver.PowerAt(d))
				}
				i = blk.end[r]
			}
			dts := blk.dt[:n]

			for k := range ub {
				if u := &ub[k]; u.res != nil {
					if err := u.add(blk.p[k][:n], runs, dts); err != nil {
						errs[k], u.res = err, nil
					}
				}
			}
			if lower != nil {
				if err := addLower(&ls, blk.p[slotLower][:n], dts); err != nil {
					errs[slotLower], lower = err, nil
				}
			}
			if shared {
				for r, d := range runs {
					if !(d >= 0) { // negative or NaN
						err := fmt.Errorf("sim: invalid demand %v", d)
						for k := range ub {
							if u := &ub[k]; u.res != nil && !u.own {
								errs[k], u.res = err, nil
							}
						}
						if lower != nil {
							errs[slotLower], lower = err, nil
						}
						shared = false
						break
					}
					seconds += dts[r]
					demand.Add(d * dts[r])
				}
			}
		}

		for k := range ub {
			if u := &ub[k]; u.res != nil {
				u.res.closeDay(day, u.sums)
				u.res.Breakdown.Idle, u.res.Breakdown.Dynamic = u.bIdle, u.bDynamic
			}
		}
		if lower != nil {
			lower.closeDay(day, ls)
		}
	}

	for k := range ub {
		if u := &ub[k]; u.res != nil && !u.own {
			u.res.QoS = qos.FullyServed(seconds, demand)
		}
	}
	if lower != nil {
		lower.QoS = qos.FullyServed(seconds, demand)
	}
	for k, r := range res {
		if errs[k] != nil {
			res[k] = nil
		} else if r != nil {
			r.finalize()
		}
	}
	return res, errs
}
