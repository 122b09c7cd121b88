// Package qos accounts for quality-of-service during simulation: whenever
// the powered-on capacity falls short of the offered load (for example
// while big machines are still booting), the shortfall is recorded as lost
// request-seconds and the second counts as a violation. The paper's
// scheduler is designed to avoid such violations by provisioning for the
// predicted window maximum; this package is how the evaluation verifies it.
//
// The demand and served integrals are Neumaier-compensated so that engines
// integrating the same trace in different interval decompositions (the 1 Hz
// tick oracle, the interval integrator, and the static fold kernels)
// agree on availability to well below the differential-test tolerance.
package qos

import (
	"fmt"
	"math"

	"repro/internal/power"
)

// Tracker accumulates QoS statistics over a simulation run. The zero value
// is ready to use.
type Tracker struct {
	seconds          float64
	violationSeconds float64
	demand           power.Accumulator // integral of offered load (request count)
	served           power.Accumulator // integral of served load
}

// Observe records one interval of dt seconds with the given offered and
// served rates.
func (t *Tracker) Observe(offered, served, dt float64) error {
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return fmt.Errorf("qos: invalid duration %v", dt)
	}
	if offered < 0 || served < 0 || math.IsNaN(offered) || math.IsNaN(served) {
		return fmt.Errorf("qos: invalid rates offered=%v served=%v", offered, served)
	}
	if served > offered+1e-9 {
		return fmt.Errorf("qos: served %v exceeds offered %v", served, offered)
	}
	t.seconds += dt
	t.demand.Add(offered * dt)
	t.served.Add(served * dt)
	if offered-served > 1e-9 {
		t.violationSeconds += dt
	}
	return nil
}

// ObserveSpan records a whole span at once from pre-folded integrals: the
// interval integrator classifies violations and integrates demand/served
// while folding runs of constant demand, then commits the span here in one
// call instead of one Observe per run. The violation verdict (a pure
// function of the per-second rates) must already be folded into
// violationSeconds by the caller.
func (t *Tracker) ObserveSpan(seconds, demandIntegral, servedIntegral, violationSeconds float64) error {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return fmt.Errorf("qos: invalid duration %v", seconds)
	}
	if violationSeconds < 0 || violationSeconds > seconds {
		return fmt.Errorf("qos: violation seconds %v outside span of %v seconds", violationSeconds, seconds)
	}
	if demandIntegral < 0 || servedIntegral < 0 || math.IsNaN(demandIntegral) || math.IsNaN(servedIntegral) {
		return fmt.Errorf("qos: invalid integrals demand=%v served=%v", demandIntegral, servedIntegral)
	}
	t.seconds += seconds
	t.demand.Add(demandIntegral)
	t.served.Add(servedIntegral)
	t.violationSeconds += violationSeconds
	return nil
}

// ObserveRuns records consecutive intervals: offered[k] for dt[k] seconds,
// served at min(offered[k], capacity). It performs exactly the additions
// of one Observe call per interval, in the same order, so the tracker ends
// bit-identical to that loop at the cost of one call per batch. Pass +Inf
// as the capacity when every rate is served in full. A negative or NaN
// rate or capacity, or an invalid duration, is an error; the intervals
// before it stay recorded, as with Observe.
func (t *Tracker) ObserveRuns(offered, dt []float64, capacity float64) error {
	if len(offered) != len(dt) {
		return fmt.Errorf("qos: %d rates for %d durations", len(offered), len(dt))
	}
	seconds, violation := t.seconds, t.violationSeconds
	demand, served := t.demand, t.served
	var err error
	for k, o := range offered {
		d := dt[k]
		s := min(o, capacity) // math.Min semantics, inlined
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			err = fmt.Errorf("qos: invalid duration %v", d)
			break
		}
		if o < 0 || s < 0 || math.IsNaN(o) || math.IsNaN(s) {
			err = fmt.Errorf("qos: invalid rates offered=%v served=%v", o, s)
			break
		}
		seconds += d
		demand.Add(o * d)
		served.Add(s * d)
		if o-s > 1e-9 {
			violation += d
		}
	}
	t.seconds, t.violationSeconds = seconds, violation
	t.demand, t.served = demand, served
	return err
}

// FullyServed returns the tracker of intervals that were all served in
// full: seconds is their summed duration and demand the compensated sum of
// offered·dt, each added in interval order. Serving every rate in full
// makes ObserveRuns add to the served integral exactly what it adds to the
// demand integral and record no violation, so the result is bit-identical
// to observing the same intervals with an infinite capacity. The static
// fold kernels keep one such chain for all the scenarios they fold.
func FullyServed(seconds float64, demand power.Accumulator) Tracker {
	return Tracker{seconds: seconds, demand: demand, served: demand}
}

// Seconds returns the observed duration.
func (t *Tracker) Seconds() float64 { return t.seconds }

// ViolationSeconds returns the time during which demand exceeded capacity.
func (t *Tracker) ViolationSeconds() float64 { return t.violationSeconds }

// LostRequests returns the integral of unserved load (requests dropped by
// the stateless web application when capacity was short).
func (t *Tracker) LostRequests() float64 { return t.demand.Sum() - t.served.Sum() }

// Availability returns the served fraction of demand in [0, 1]; a run with
// zero demand is fully available.
func (t *Tracker) Availability() float64 {
	d := t.demand.Sum()
	if d == 0 {
		return 1
	}
	return t.served.Sum() / d
}

// String summarizes the tracker.
func (t *Tracker) String() string {
	return fmt.Sprintf("qos: availability=%.4f%% violations=%.0fs lost=%.0f requests",
		t.Availability()*100, t.violationSeconds, t.LostRequests())
}
