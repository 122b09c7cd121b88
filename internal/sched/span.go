package sched

import (
	"math"

	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/power"
)

// This file is the interval integrator's scheduler interface. DecideSpan
// discovers how many seconds a decision outcome repeats for: it executes
// the decision at the span start, then scans forward one second at a time
// classifying each second's would-be outcome — no-op, overhead-aware skip,
// or action — stopping at the first second that would act. The scan
// touches no fleet state, so an engine can integrate the whole quiescent
// span in one demand fold instead of one step per second.

// DecideSpan runs the decision logic at second t, then returns the first
// second in (t, limit] at which the engine must call DecideSpan again:
// either the first second whose decision would reconfigure the fleet, or
// limit. Seconds t..next-1 have their decision outcome fully accounted
// (counters the 1 Hz loop would bump each second — skipped
// reconfigurations, malleability adjustments — are advanced by the scan);
// the acting second itself is NOT executed, so the next DecideSpan call at
// next performs it exactly as the per-second oracles would.
//
// Busy spans (transitions in flight, a pending retire phase, or an active
// migration lock) return limit immediately: the scheduler takes no decision
// until its timers fire, and the caller already bounds the span by
// NextWake, which is guaranteed positive while busy.
func (s *Scheduler) DecideSpan(t, limit int) (StepReport, int, error) {
	var rep StepReport
	if limit <= t {
		limit = t + 1
	}
	if err := s.decide(t, &rep); err != nil {
		return rep, 0, err
	}
	if s.reconfiguring() || s.pending != nil {
		// Busy: no decision can fire before a timer does, and NextWake > 0
		// bounds the caller's span.
		return rep, limit, nil
	}
	if rep.Decided {
		// The decision acted but resolved instantly (zero-duration
		// transitions): stay conservative and re-decide next second.
		return rep, t + 1, nil
	}
	// Quiescent scan. Fleet counts cannot change without a decision acting,
	// so the current counts are computed once for the whole span.
	cur := s.cl.Counts()
	// The outcome of a scanned second is a pure function of its prediction
	// (the fleet is frozen during the scan), so a second whose prediction
	// equals the previous one repeats the previous classification — only
	// its per-second counter effects are replayed. Look-ahead predictions
	// hold for long stretches, which makes this the scan's common case.
	prevP := math.NaN() // never equal on the first iteration
	prevSkip, prevAdjusted := false, false
	for u := t + 1; u < limit; u++ {
		p := s.pred.Predict(u) * s.headroom
		if p == prevP {
			if prevAdjusted {
				s.adjustments++
			}
			if prevSkip {
				s.skipped++
			}
			continue
		}
		prevP, prevSkip, prevAdjusted = p, false, false
		target := s.table.At(p)
		if s.app == nil {
			// Fast path: no malleability adjustment is possible, so the
			// no-op test is a positional slot-vs-counts compare with no
			// allocation — this is the integrator's per-second inner loop.
			if countsMatchSlots(target, cur) {
				continue
			}
			if s.overheadAware && !s.reconfigurationWorthIt(target.Counts(), p) {
				s.skipped++
				prevSkip = true
				continue
			}
			return rep, u, nil
		}
		// Application path: mirror decide's per-second derivation exactly,
		// including its counter side effects on non-acting seconds.
		counts, adjusted := s.adjustForMalleability(target, p)
		prevAdjusted = adjusted
		switch {
		case sameCounts(counts, cur):
			if adjusted {
				s.adjustments++
			}
		case s.overheadAware && !s.reconfigurationWorthIt(counts, p):
			if adjusted {
				s.adjustments++
			}
			s.skipped++
			prevSkip = true
		default:
			return rep, u, nil
		}
	}
	return rep, limit, nil
}

// countsMatchSlots reports whether the combination's node counts equal the
// current active counts — sameCounts(target.Counts(), cur) without
// materializing the target map. cur holds only strictly positive counts
// (the cluster.Counts contract), so matching every positive slot and then
// requiring the positive-slot count to cover cur is exactly the map
// equality test.
func countsMatchSlots(target bml.Combination, cur map[string]int) bool {
	nonzero := 0
	for _, sl := range target.Slots {
		want := sl.Nodes()
		if want > 0 {
			nonzero++
			if cur[sl.Arch.Name] != want {
				return false
			}
		} else if cur[sl.Arch.Name] != 0 {
			return false
		}
	}
	return nonzero == len(cur)
}

// StartDemandFold begins a demand fold over the cluster's current
// configuration (see cluster.DemandFold). The fold integrates the On
// fleet's energy over runs of constant demand; FinishDemandFold commits it.
func (s *Scheduler) StartDemandFold() (*cluster.DemandFold, error) {
	return s.cl.StartFold()
}

// FinishDemandFold commits a demand fold over dt seconds ending on
// lastDemand and drains the application migration lock, mirroring what a
// sequence of 1 Hz Step calls over the span would have done to the
// scheduler's timers.
func (s *Scheduler) FinishDemandFold(f *cluster.DemandFold, lastDemand, dt float64) (power.Joules, error) {
	e, err := f.Commit(lastDemand, dt)
	s.drainMigrationLock(dt)
	return e, err
}
