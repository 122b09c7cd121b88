package sched

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/predict"
)

// This file is the interval integrator's scheduler interface. DecideSpan
// discovers how many seconds a decision outcome repeats for: it executes
// the decision at the span start, then scans forward one run of equal
// predictions at a time classifying each run's would-be outcome — no-op,
// overhead-aware skip, or action — stopping at the first second that would
// act. The scan touches no fleet state, so an engine can integrate the
// whole quiescent span in one demand fold instead of one step per second.

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
	// so the current counts are read once for the whole span.
	cur := s.cl.ActiveCounts(s.cur)
	s.cur = cur
	// The outcome of a scanned second is a pure function of its prediction
	// (the fleet is frozen during the scan), so the scan steps one run of
	// equal predictions at a time: it classifies the run's first second and
	// replays that second's per-second counter effects for the rest of the
	// run in bulk. A run whose scaled prediction equals the previous run's
	// repeats the previous classification. Look-ahead predictions hold for
	// long stretches (about 109 s on the World Cup trace), which makes a
	// run, not a second, the scan's unit of work. Each run mirrors decide's
	// per-second derivation exactly, including its counter side effects on
	// non-acting seconds.
	prevP := math.NaN() // never equal on the first iteration
	prevSkip, prevAdjusted := false, false
	for u, end := t+1, 0; u < limit; u = end {
		var raw float64
		raw, end = s.pred.PredictRun(u)
		end = min(end, limit)
		reps := end - u
		p := raw * s.headroom
		if p == prevP {
			if prevAdjusted {
				s.adjustments += reps
			}
			if prevSkip {
				s.skipped += reps
			}
			continue
		}
		want, adjusted := s.targetFor(p)
		prevP, prevSkip, prevAdjusted = p, false, adjusted
		switch {
		case slices.Equal(want, cur):
			if adjusted {
				s.adjustments += reps
			}
		case s.overheadAware && !s.reconfigurationWorthIt(cur, want, p):
			if adjusted {
				s.adjustments += reps
			}
			s.skipped += reps
			prevSkip = true
		default:
			return rep, u, nil
		}
	}
	return rep, limit, nil
}

// runPredictor is a predictor that reports where each run of equal
// predictions ends (predict.LookaheadMax does): PredictRun(t) returns
// Predict(t) and the first second after t whose prediction differs.
type runPredictor interface {
	predict.Predictor
	PredictRun(t int) (float64, int)
}

// secondRuns presents a predictor that does not report runs as one whose
// runs are one second long, so DecideSpan has a single scan for every
// predictor.
type secondRuns struct{ predict.Predictor }

// PredictRun implements runPredictor.
func (p secondRuns) PredictRun(t int) (float64, int) { return p.Predict(t), t + 1 }

// runsOf returns pred's own runs when it reports them, else one-second runs.
func runsOf(pred predict.Predictor) runPredictor {
	if rp, ok := pred.(runPredictor); ok {
		return rp
	}
	return secondRuns{pred}
}

// StartDemandFold begins a demand fold over the cluster's current
// configuration (see cluster.DemandFold). The fold integrates the On
// fleet's energy over runs of constant demand; FinishDemandFold commits it.
func (s *Scheduler) StartDemandFold() *cluster.DemandFold {
	return s.cl.StartFold()
}

// FinishDemandFold commits a demand fold over dt seconds and drains the
// application migration lock, mirroring what a sequence of 1 Hz Step calls
// over the span would have done to the scheduler's timers.
func (s *Scheduler) FinishDemandFold(f *cluster.DemandFold, dt float64) (power.Joules, error) {
	e, err := f.Commit(dt)
	s.drainMigrationLock(dt)
	return e, err
}
