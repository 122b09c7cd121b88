package sim

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file implements the dispatch-aware interval integrator, the only
// production BML engine.
//
// Between two scheduler events the machine configuration is fixed, so the
// fleet's draw is a pure closed-form function of the instantaneous demand
// (cluster.DemandFold), and the engine only iterates on
//
//   - decisions that act (discovered by sched.DecideSpan's forward scan),
//   - transition completions and migration-lock expiries (NextWake),
//   - day boundaries, telemetry bucket boundaries, and the trace end.
//
// Inside each span the trace's runs (trace.Trace.Runs) are folded through
// the same float arithmetic Distribute+Tick would have performed, so the
// result matches the 1 Hz tick oracle to summation ulps — the differential
// suites hold the two to ≤1e-6 J and exact counters. The engine's cost is
// O(scheduler events) iterations plus a tight allocation-free per-run fold
// (and sched's per-second decision scan), which is what makes raw traces
// as cheap per simulated second as quantized ones.

// wakeCeil converts a scheduler wake-up delay in (possibly fractional)
// seconds into the first whole second at which the 1 Hz decision loop
// would observe the change.
func wakeCeil(w float64) int {
	return int(math.Ceil(w - 1e-9))
}

// blockRuns is how many runs of the trace one runBlock holds. Its
// 4 KiB stay on the stack.
const blockRuns = 256

// runBlock is a caller's block of trace runs: the value of each and its
// exclusive end.
type runBlock struct {
	demand [blockRuns]float64
	end    [blockRuns]int
}

// fill reads the runs of tr from from on, up to to, into b and returns
// their values: as many runs as b holds, the last ending at b.end[n-1].
func (b *runBlock) fill(tr *trace.Trace, from, to int) []float64 {
	return b.demand[:tr.Runs(from, to, b.demand[:], b.end[:])]
}

// spanObserver sees every integrated span [t, next) of a BML run with the
// total energy charged to it (fleet integration plus any decision-instant
// migration energy). A span never crosses a day boundary or, when the run
// has a bucket width, a bucket boundary. The recorder uses it to fold
// per-bucket telemetry.
type spanObserver func(t, next int, energy power.Joules)

// runBMLIntegrator is the interval-integrator BML engine loop. bucket > 0
// additionally ends spans at every multiple of bucket seconds; obs, when
// non-nil, sees every span.
func runBMLIntegrator(tr *trace.Trace, sc *sched.Scheduler, res *Result, bucket int, obs spanObserver) error {
	n := tr.Len()
	var blk runBlock
	for t := 0; t < n; {
		// Spans never cross day (or bucket) boundaries, so addEnergy's day
		// bucketing is exact without splitting energies after the fact.
		limit := (t/trace.SecondsPerDay + 1) * trace.SecondsPerDay
		if bucket > 0 {
			limit = min(limit, (t/bucket+1)*bucket)
		}
		if limit > n {
			limit = n
		}
		rep, next, err := sc.DecideSpan(t, limit)
		if err != nil {
			return fmt.Errorf("sim: decide span at %d: %w", t, err)
		}
		// Transitions and migration locks wake the scheduler mid-span.
		if w := sc.NextWake(); w > 0 {
			if s := t + wakeCeil(w); s < next {
				next = s
			}
		}
		if next <= t {
			next = t + 1
		}

		fold := sc.StartDemandFold()
		var demandInt, servedInt power.Accumulator
		violation := 0.0
		for i := t; i < next; {
			for r, d := range blk.fill(tr, i, next) {
				j := blk.end[r]
				dt := float64(j - i)
				served, err := fold.Observe(d, dt)
				if err != nil {
					return fmt.Errorf("sim: fold [%d,%d): %w", i, j, err)
				}
				// The QoS verdict is a pure per-second function of demand, so
				// it folds exactly: same thresholds as qos.Tracker.Observe.
				if served > d+1e-9 {
					return fmt.Errorf("sim: fold [%d,%d): served %v exceeds offered %v", i, j, served, d)
				}
				if d-served > 1e-9 {
					violation += dt
				}
				demandInt.Add(d * dt)
				servedInt.Add(served * dt)
				i = j
			}
		}
		e, err := sc.FinishDemandFold(fold, float64(next-t))
		if err != nil {
			return fmt.Errorf("sim: integrate [%d,%d): %w", t, next, err)
		}
		res.addEnergy(t, e+rep.Energy)
		if obs != nil {
			obs(t, next, e+rep.Energy)
		}
		if err := res.QoS.ObserveSpan(float64(next-t), demandInt.Sum(), servedInt.Sum(), violation); err != nil {
			return err
		}
		t = next
	}
	return nil
}
