// Package sched implements the paper's proactive reconfiguration scheduler.
//
// Every second the scheduler, unless a reconfiguration is in flight,
// obtains a load prediction (the maximum over a look-ahead window of twice
// the longest power-on duration), looks up the ideal BML combination for
// that prediction, and — if the combination's node counts differ from the
// current fleet — starts a reconfiguration by switching machines on and
// off. While On/Off actions run, no further decision is taken; the next
// prediction window effectively starts at reconfiguration completion.
// Otherwise the window just slides one time step. On/Off durations and
// energies are charged through the machine automata of the cluster.
//
// Two entry points serve the two simulation engines: Step (one 1 Hz tick,
// the differential oracle) and DecideSpan (span.go), which discovers how
// far the current decision outcome extends by scanning predictions
// forward, letting the interval integrator fold whole quiescent spans in
// one step.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
)

// DefaultWindowFactor is the paper's look-ahead sizing rule: the window is
// two times the longest power-on duration (2 × 189 s = 378 s for Table I).
const DefaultWindowFactor = 2

// Window computes the look-ahead window in seconds for a candidate set: the
// factor times the longest On duration, rounded up to a whole second and at
// least one. A window too large for an int is an error, not a wrapped value.
func Window(candidates []profile.Arch, factor float64) (int, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return 0, fmt.Errorf("sched: invalid window factor %v", factor)
	}
	if len(candidates) == 0 {
		return 0, errors.New("sched: no candidate architectures")
	}
	var longest time.Duration
	for _, a := range candidates {
		if a.OnDuration > longest {
			longest = a.OnDuration
		}
	}
	w := math.Ceil(longest.Seconds() * factor)
	if w >= math.MaxInt {
		return 0, fmt.Errorf("sched: window factor %v gives a %g s window, too large for an int", factor, w)
	}
	return max(int(w), 1), nil
}

// Config assembles a scheduler.
type Config struct {
	// Table is the rate→node-count lookup from the planner
	// (bml.Planner.Lookup). Its candidates must be the cluster's
	// architectures in the cluster's Big→Little order, so its counts are
	// the scheduler's target vectors as they stand.
	Table bml.Lookup
	// Predictor forecasts load; the paper uses predict.LookaheadMax.
	Predictor predict.Predictor
	// Cluster is the fleet being reconfigured.
	Cluster *cluster.Cluster
	// Headroom scales predictions before the combination lookup (>= 1 adds
	// safety margin for critical applications; 1 reproduces the paper).
	// When zero and App is set, the application class's default headroom
	// applies.
	Headroom float64
	// App optionally supplies the §III application characterization:
	// malleability bounds are enforced on target combinations and
	// migration overheads are charged when instances are displaced.
	App *app.Spec
	// OverheadAware enables the future-work policy: reconfigurations not
	// required for capacity must amortize their switching energy within
	// AmortizeSeconds, otherwise they are skipped.
	OverheadAware bool
	// AmortizeSeconds is the amortization horizon; zero defaults to the
	// paper's 378 s window.
	AmortizeSeconds float64
	// DecisionLogCap bounds the retained decision log (0 = default 4096,
	// negative disables logging).
	DecisionLogCap int
}

// Scheduler drives dynamic reconfiguration over a simulation. It is not
// safe for concurrent use.
type Scheduler struct {
	table           bml.Lookup
	pred            runPredictor
	cl              *cluster.Cluster
	headroom        float64
	app             *app.Spec
	overheadAware   bool
	amortizeSeconds float64

	decisions   int
	switchOns   int
	switchOffs  int
	skipped     int // reconfigurations rejected by the amortization test
	adjustments int // targets altered to satisfy malleability bounds
	// Node counts travel as vectors with one entry per cluster
	// architecture, in the cluster's Big→Little order.
	//
	// lastTarget is the most recent decided target (nil before the first
	// decision). A decided target is never modified, so the log entry and
	// pending share it.
	lastTarget []int
	log        []record
	logCap     int
	// pending holds the final target of a two-phase reconfiguration: when
	// a decision both boots new machines and retires old ones, the retire
	// phase is deferred until the boots complete so the application keeps
	// being served on the old machines during the migration (the paper's
	// stateless migration starts the new instance before updating the load
	// balancer and stopping the old one).
	pending []int
	// want, cur and up are scratch vectors reused by every decision
	// evaluation: the combination's (adjusted) counts, the fleet's active
	// counts, and the grow-phase target.
	want, cur, up []int
	// migrationLock extends the reconfiguration lock by the application's
	// migration duration after the retire phase displaces instances.
	migrationLock float64
	// migrationEnergy accumulates the application-level migration energy
	// charged so far (also folded into step energies).
	migrationEnergy power.Joules
}

// New validates the configuration and builds a scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Table == nil {
		return nil, errors.New("sched: nil combination table")
	}
	if cfg.Predictor == nil {
		return nil, errors.New("sched: nil predictor")
	}
	if cfg.Cluster == nil {
		return nil, errors.New("sched: nil cluster")
	}
	if plan, host := cfg.Table.Candidates(), cfg.Cluster.Architectures(); !slices.EqualFunc(plan, host, sameName) {
		return nil, fmt.Errorf("sched: combination table plans %q, but the cluster hosts %q", names(plan), names(host))
	}
	if cfg.App != nil {
		if err := cfg.App.Validate(); err != nil {
			return nil, err
		}
	}
	h := cfg.Headroom
	if h == 0 {
		if cfg.App != nil {
			h = cfg.App.EffectiveHeadroom()
		} else {
			h = 1
		}
	}
	if h < 1 || math.IsNaN(h) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("sched: invalid headroom %v", h)
	}
	amortize := cfg.AmortizeSeconds
	if amortize == 0 {
		amortize = 378
	}
	if amortize < 0 || math.IsNaN(amortize) || math.IsInf(amortize, 0) {
		return nil, fmt.Errorf("sched: invalid amortization horizon %v", amortize)
	}
	logCap := cfg.DecisionLogCap
	switch {
	case logCap == 0:
		logCap = defaultLogCap
	case logCap < 0:
		logCap = 0
	}
	return &Scheduler{
		table:           cfg.Table,
		pred:            runsOf(cfg.Predictor),
		cl:              cfg.Cluster,
		headroom:        h,
		app:             cfg.App,
		overheadAware:   cfg.OverheadAware,
		amortizeSeconds: amortize,
		logCap:          logCap,
	}, nil
}

// StepReport describes one simulated second.
type StepReport struct {
	// Predicted is the (headroom-scaled) prediction used this step; zero
	// when no decision was evaluated because a reconfiguration was in
	// flight.
	Predicted float64
	// Decided reports whether a new reconfiguration started this step.
	Decided bool
	// Served is the rate actually served (≤ offered demand).
	Served float64
	// Energy is the fleet energy consumed during the step, including
	// transition energies.
	Energy power.Joules
	// Reconfiguring reports whether transitions were in flight during the
	// step.
	Reconfiguring bool
}

// Step advances the schedule by dt seconds at simulation second t with the
// given offered demand. It performs (at most) one decision, dispatches the
// demand across powered-on machines, and ticks the fleet. This is the
// 1 Hz oracle's entry point; the interval integrator in internal/sim uses
// DecideSpan and the demand fold instead.
func (s *Scheduler) Step(t int, demand, dt float64) (StepReport, error) {
	var rep StepReport
	if demand < 0 || math.IsNaN(demand) || math.IsInf(demand, 0) {
		return rep, fmt.Errorf("sched: invalid demand %v", demand)
	}
	// Drain any migration lock left by the previous retire phase.
	s.drainMigrationLock(dt)
	if err := s.decide(t, &rep); err != nil {
		return rep, err
	}
	served, err := s.cl.Distribute(demand)
	if err != nil {
		return rep, err
	}
	e, err := s.cl.Tick(dt)
	if err != nil {
		return rep, err
	}
	rep.Served = served
	rep.Energy = e + rep.Energy // rep.Energy may carry migration energy
	return rep, nil
}

// NextWake returns the seconds until the earliest scheduler-relevant timer:
// the next machine transition completion or the migration lock expiry.
// Zero means no timer is pending and the next decision depends only on the
// prediction signal. The cluster answers the transition query from its
// min-heap index, so calling this every span is O(1) in fleet size.
func (s *Scheduler) NextWake() float64 {
	w := s.cl.NextTransitionEnd()
	if s.migrationLock > 0 && (w == 0 || s.migrationLock < w) {
		w = s.migrationLock
	}
	return w
}

// drainMigrationLock advances the migration lock by dt seconds.
func (s *Scheduler) drainMigrationLock(dt float64) {
	if s.migrationLock > 0 {
		s.migrationLock -= dt
		if s.migrationLock < 0 {
			s.migrationLock = 0
		}
	}
}

// decide runs the per-second decision logic at second t.
func (s *Scheduler) decide(t int, rep *StepReport) error {
	rep.Reconfiguring = s.reconfiguring()
	if !s.cl.Reconfiguring() && s.pending != nil {
		// Boot phase finished: migrate load off the retired machines and
		// switch them off. The reconfiguration stays locked until the
		// shutdowns (and the application migration) complete.
		if err := s.applyRetirePhase(rep); err != nil {
			return err
		}
		rep.Reconfiguring = s.reconfiguring()
	}
	if rep.Reconfiguring || s.pending != nil {
		return nil
	}
	p := s.pred.Predict(t) * s.headroom
	rep.Predicted = p
	want, adjusted := s.targetFor(p)
	if adjusted {
		s.adjustments++
	}
	current := s.cl.ActiveCounts(s.cur)
	s.cur = current
	switch {
	case slices.Equal(want, current):
		// No change: the prediction window just slides.
	case s.overheadAware && !s.reconfigurationWorthIt(current, want, p):
		s.skipped++
	default:
		// Phase one: only grow the fleet (boot everything the target
		// needs); defer shrinking to phase two after boots complete.
		up := append(s.up[:0], want...)
		for i, n := range current {
			up[i] = max(up[i], n)
		}
		s.up = up
		on, off, err := s.cl.SetTarget(up)
		if err != nil {
			return err
		}
		target := slices.Clone(want)
		s.decisions++
		s.switchOns += on
		s.switchOffs += off
		s.lastTarget = target
		s.recordDecision(record{time: t, predicted: p, target: target, switchOns: on, switchOffs: off})
		if !slices.Equal(up, target) {
			s.pending = target
		}
		rep.Decided = true
		rep.Reconfiguring = s.reconfiguring()
		if !s.cl.Reconfiguring() && s.pending != nil {
			// Nothing actually booted (e.g. counts only shrank after
			// normalization); apply the shrink immediately.
			if err := s.applyRetirePhase(rep); err != nil {
				return err
			}
			rep.Reconfiguring = s.reconfiguring()
		}
	}
	return nil
}

// reconfiguring reports whether machine transitions or application
// migrations are still in flight.
func (s *Scheduler) reconfiguring() bool {
	return s.cl.Reconfiguring() || s.migrationLock > 0
}

// applyRetirePhase executes the deferred shrink of a two-phase
// reconfiguration and charges the application migration overheads.
func (s *Scheduler) applyRetirePhase(rep *StepReport) error {
	on, off, err := s.cl.SetTarget(s.pending)
	if err != nil {
		return err
	}
	s.switchOns += on
	s.switchOffs += off
	s.pending = nil
	if s.app != nil && s.app.Migration.Migratable && off > 0 {
		// Each retired node displaces one application instance.
		e := s.app.Migration.Energy * power.Joules(float64(off))
		s.migrationEnergy += e
		rep.Energy += e
		s.migrationLock = math.Max(s.migrationLock, s.app.Migration.Duration.Seconds())
	}
	return nil
}

// Decisions returns how many reconfiguration decisions have been taken.
func (s *Scheduler) Decisions() int { return s.decisions }

// Skipped returns how many reconfigurations the overhead-aware policy
// rejected because they could not amortize their switching energy.
func (s *Scheduler) Skipped() int { return s.skipped }

// MigrationEnergy returns the accumulated application-migration energy.
func (s *Scheduler) MigrationEnergy() power.Joules { return s.migrationEnergy }

// SwitchOns returns the total machines switched on.
func (s *Scheduler) SwitchOns() int { return s.switchOns }

// SwitchOffs returns the total machines switched off.
func (s *Scheduler) SwitchOffs() int { return s.switchOffs }

// byName keys a count vector by architecture name, omitting zero counts.
func (s *Scheduler) byName(counts []int) map[string]int {
	out := make(map[string]int, len(counts))
	for i, a := range s.cl.Architectures() {
		if counts[i] > 0 {
			out[a.Name] = counts[i]
		}
	}
	return out
}

func sameName(a, b profile.Arch) bool { return a.Name == b.Name }

// names lists the architectures' names in order.
func names(archs []profile.Arch) []string {
	out := make([]string, len(archs))
	for i, a := range archs {
		out[i] = a.Name
	}
	return out
}
