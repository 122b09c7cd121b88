package sim

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Option configures how the Run functions execute a scenario.
type Option func(*options)

type options struct {
	// tick selects the 1 Hz oracle loop. Otherwise BML runs on the interval
	// integrator (integrator.go) and the static scenarios on the per-day
	// fold kernel (static.go).
	tick bool
}

// WithTickEngine selects the legacy 1 Hz tick loop: one scheduler step and
// one joule-sample per simulated second. It is kept as the differential-
// testing oracle for the interval integrator and the static fold kernel,
// and for exact replication of the paper's original integration scheme.
func WithTickEngine() Option { return func(o *options) { o.tick = true } }

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// runBMLTick is the legacy 1 Hz loop retained as the differential oracle.
// obs, when non-nil, sees every simulated second as a one-second span.
func runBMLTick(tr *trace.Trace, sc *sched.Scheduler, res *Result, obs spanObserver) error {
	for t := 0; t < tr.Len(); t++ {
		demand := tr.At(t)
		rep, err := sc.Step(t, demand, 1)
		if err != nil {
			return fmt.Errorf("sim: step %d: %w", t, err)
		}
		res.addEnergy(t, rep.Energy)
		if obs != nil {
			obs(t, t+1, rep.Energy)
		}
		if err := res.QoS.Observe(demand, rep.Served, 1); err != nil {
			return err
		}
	}
	return nil
}
