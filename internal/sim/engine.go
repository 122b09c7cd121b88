package sim

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Option configures how the Run functions execute a scenario.
type Option func(*options)

// engineKind selects one of the three BML execution engines. The static
// scenarios (upper/lower bounds) only distinguish tick from non-tick: every
// non-tick option runs them through the per-day fold kernels of static.go,
// which have no scheduler and so nothing for the BML engines to differ on.
type engineKind int

const (
	// engineIntegrator is the default: scheduler-event spans with a demand
	// fold over the raw samples inside each span.
	engineIntegrator engineKind = iota
	// engineEvent is the per-sample event engine: one interval per load or
	// prediction change.
	engineEvent
	// engineTick is the legacy 1 Hz loop.
	engineTick
)

type options struct {
	engine engineKind
}

// WithTickEngine selects the legacy 1 Hz tick loop: one scheduler step and
// one joule-sample per simulated second. It is kept as the differential-
// testing oracle for the faster engines and for exact replication of the
// paper's original integration scheme.
func WithTickEngine() Option { return func(o *options) { o.engine = engineTick } }

// WithEventEngine selects the per-sample event engine: the simulation skips
// directly from one event (load change, prediction change, transition
// completion, day boundary) to the next and integrates energy analytically
// over each interval. On raw 1 Hz traces every second is a load-change
// event, which is what the interval integrator improves on; the event
// engine is retained as the second differential oracle and as the engine of
// telemetry-recording runs.
func WithEventEngine() Option { return func(o *options) { o.engine = engineEvent } }

// WithIntegratorEngine selects the dispatch-aware interval integrator (the
// default): the simulation jumps between scheduler events only (decisions
// that act, transition completions, lock expiries, day boundaries) and
// folds the raw demand samples inside each span through the closed-form
// fill-first dispatch arithmetic, so raw un-quantized traces cost
// O(scheduler events) engine iterations rather than one per sample.
func WithIntegratorEngine() Option { return func(o *options) { o.engine = engineIntegrator } }

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// wakeCeil converts a scheduler wake-up delay in (possibly fractional)
// seconds into the first whole second at which the 1 Hz decision loop
// would observe the change.
func wakeCeil(w float64) int {
	return int(math.Ceil(w - 1e-9))
}

// intervalObserver sees every integrated interval of an event-engine BML
// run: [t, next) with the constant offered demand and the total energy
// charged to the interval (fleet integration plus any decision-instant
// migration energy). The recorder uses it to fold per-bucket telemetry
// into the event stream instead of re-running a 1 Hz loop.
type intervalObserver func(t, next int, demand float64, energy power.Joules)

// runBMLEvent is the event-driven BML scenario: decisions are evaluated
// only at event seconds and the fleet energy is integrated in closed form
// over each interval.
func runBMLEvent(tr *trace.Trace, sc *sched.Scheduler, pred predict.Predictor, res *Result) error {
	return runBMLEventObserved(tr, sc, res, newTimeline(tr, pred), nil)
}

// runBMLEventObserved is runBMLEvent with a caller-supplied timeline (which
// may include telemetry bucket boundaries) and an optional per-interval
// observer.
func runBMLEventObserved(tr *trace.Trace, sc *sched.Scheduler, res *Result, tl *timeline, obs intervalObserver) error {
	n := tr.Len()
	for t := 0; t < n; {
		// Static events (load, prediction, day, bucket, end) bound the
		// interval the decision outcome provably repeats over.
		static := tl.next(t)
		rep, err := sc.DecideInterval(t, static-t)
		if err != nil {
			return fmt.Errorf("sim: decide at %d: %w", t, err)
		}
		// The decision may have started transitions or a migration lock;
		// pre-existing ones also wake the scheduler mid-interval.
		next := static
		if w := sc.NextWake(); w > 0 {
			if s := t + wakeCeil(w); s < next {
				next = s
			}
		}
		if next <= t {
			next = t + 1
		}
		demand := tr.At(t)
		served, e, err := sc.IntegrateInterval(demand, float64(next-t))
		if err != nil {
			return fmt.Errorf("sim: integrate [%d,%d): %w", t, next, err)
		}
		res.addEnergy(t, e+rep.Energy)
		if obs != nil {
			obs(t, next, demand, e+rep.Energy)
		}
		if err := res.QoS.Observe(demand, served, float64(next-t)); err != nil {
			return err
		}
		t = next
	}
	return nil
}

// runBMLTick is the legacy 1 Hz loop retained as the differential oracle.
func runBMLTick(tr *trace.Trace, sc *sched.Scheduler, res *Result) error {
	for t := 0; t < tr.Len(); t++ {
		demand := tr.At(t)
		rep, err := sc.Step(t, demand, 1)
		if err != nil {
			return fmt.Errorf("sim: step %d: %w", t, err)
		}
		res.addEnergy(t, rep.Energy)
		if err := res.QoS.Observe(demand, rep.Served, 1); err != nil {
			return err
		}
	}
	return nil
}
