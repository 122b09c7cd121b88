// Package ctrl is the live BML control plane: the event-driven counterpart
// of the simulator's proactive scheduler, driving a real farm of web-server
// instances (internal/webapp) over wall time.
//
// The controller re-plans on two kinds of occasions. A fixed decide
// interval reproduces the paper's periodic decision loop: predict the load
// (or fall back to the observed arrival rate), look the ideal BML
// combination up in the planner's table, and reconfigure the farm when the
// combination changed. On top of that, *events* force an early re-plan
// that a fixed-interval loop would catch only at the next tick: the
// observed arrival rate diverging from the current prediction beyond a
// threshold, the QoS latency window degrading, or an arrival burst. Event
// re-plans pass through a rate limiter (minimum gap plus a per-minute
// budget) so a noisy signal cannot thrash the farm; interval re-plans are
// never limited.
//
// For differential testing against the simulator the controller can
// emulate the scheduler's reconfiguration locks (EmulateTransitions):
// after a reconfiguration it suppresses decisions for the sim On/Off
// durations scaled to wall time, mirroring sched.Scheduler's rule that no
// decision is taken while machine transitions are in flight. The clock is
// injectable, so unit tests run the loop at simulated speed.
package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/profile"
)

// Reconfigurer is the farm surface the controller drives. *webapp.Farm
// satisfies it; tests substitute mocks.
type Reconfigurer interface {
	// Reconfigure converges the farm to the target instance counts.
	Reconfigure(ctx context.Context, target map[string]int) error
	// Counts returns the current instance counts per architecture.
	Counts() map[string]int
}

// Trigger identifies what caused a re-plan.
type Trigger string

// Re-plan triggers. Interval re-plans come from the fixed decide ticker;
// the others are events and subject to the re-plan rate limiter.
const (
	TriggerInterval  Trigger = "interval"
	TriggerRateError Trigger = "rate-error"
	TriggerQoS       Trigger = "qos"
	TriggerBurst     Trigger = "burst"
)

// Event asks the controller for an early re-plan. Tests inject synthetic
// events; the poll loop generates them from live signals.
type Event struct {
	Trigger Trigger
	Reason  string
}

// Decision records one re-plan evaluation.
type Decision struct {
	// At is the wall-clock instant of the evaluation.
	At time.Time
	// SimT is the simulated-trace second the instant maps to (wall time
	// since Run started divided by TimeScale).
	SimT float64
	// Trigger says what caused the evaluation.
	Trigger Trigger
	// Observed is the EWMA arrival-rate estimate in trace units (live
	// rate divided by RateScale); zero until the first poll.
	Observed float64
	// Predicted is the headroom-scaled rate the table lookup used.
	Predicted float64
	// Target is the decided combination.
	Target map[string]int
	// Changed reports whether Target differed from the farm's counts.
	Changed bool
	// Applied reports whether the reconfiguration was applied cleanly;
	// Err holds the failure otherwise.
	Applied bool
	Err     error
}

// Stats summarizes controller activity.
type Stats struct {
	// Decisions counts re-plan evaluations (suppressed ones excluded).
	Decisions int
	// Changed counts evaluations that reconfigured the farm.
	Changed int
	// EventReplans counts evaluations triggered by events rather than the
	// interval ticker.
	EventReplans int
	// Suppressed counts evaluations skipped because an emulated
	// reconfiguration lock was in flight.
	Suppressed int
	// RateLimited counts events dropped by the re-plan rate limiter.
	RateLimited int
}

// Config assembles a Controller.
type Config struct {
	// Farm is the live farm to drive. Required.
	Farm Reconfigurer
	// Table is the rate→node-count lookup, built by sim.LiveRig so live
	// and simulated runs plan from the identical table; decisions key its
	// counts by its candidates' names. Required.
	Table bml.Lookup
	// Predictor forecasts trace load at simulated second t. Nil runs the
	// controller reactively from the observed arrival rate (which then
	// requires ObservedCount).
	Predictor predict.Predictor
	// Clock abstracts wall time; nil means the real clock.
	Clock Clock
	// TimeScale is the wall duration of one simulated trace second
	// (time.Second replays in real time; smaller compresses). Zero means
	// one second.
	TimeScale time.Duration
	// DecideEvery is the wall interval between periodic re-plans. Zero
	// means TimeScale (one decision per simulated second).
	DecideEvery time.Duration
	// PollEvery is the wall interval between observation samples and
	// event-trigger checks. Zero means DecideEvery/4.
	PollEvery time.Duration
	// RateScale converts trace rates to live request rates (live = trace
	// × RateScale). Zero means 1.
	RateScale float64
	// Headroom scales predictions before the table lookup (≥ 1). Zero
	// means 1.
	Headroom float64
	// MinRate floors the lookup rate in trace units, keeping a minimum
	// fleet alive when the observed rate drops to zero.
	MinRate float64
	// PredictSkew is added (in simulated seconds) to the predictor query
	// time. The differential replay harness sets 1: the simulator decides
	// every second, so on a quantized trace its sliding window almost
	// always reaches one second past a bucket boundary, and a live tick
	// landing exactly on the boundary (± scheduling jitter) would
	// otherwise read the previous window's value.
	PredictSkew int
	// RateErrorThreshold triggers an event re-plan when
	// |observed×Headroom − predicted| / max(predicted, RateErrorFloor)
	// exceeds it. Zero disables the trigger.
	RateErrorThreshold float64
	// RateErrorFloor guards the relative-error denominator (trace units).
	// Zero means 1.
	RateErrorFloor float64
	// BurstFactor triggers an event re-plan when the short-window arrival
	// rate exceeds BurstFactor × the EWMA rate. Zero disables.
	BurstFactor float64
	// BurstWindow is the short window for burst detection. Zero means 1s.
	BurstWindow time.Duration
	// QoSDegraded reports whether the latency window is degraded (e.g.
	// qos.Window.Degraded); polled each PollEvery. Nil disables.
	QoSDegraded func(now time.Time) bool
	// QoSBoost multiplies the lookup rate on QoS-triggered re-plans,
	// buying emergency capacity beyond the current estimate. Zero means
	// 1.25; 1 disables the boost.
	QoSBoost float64
	// ArrivalRate returns the live arrival rate over a recent window
	// (e.g. webapp.LoadBalancer.ArrivalRate); used for burst detection.
	ArrivalRate func(window time.Duration) float64
	// ObservedCount returns the cumulative live arrival count (e.g.
	// webapp.LoadBalancer.Arrivals); the poll loop differentiates it into
	// the observed-rate estimate. Required when Predictor is nil.
	ObservedCount func() uint64
	// MinReplanGap is the minimum wall time between event re-plans. Zero
	// means DecideEvery/4.
	MinReplanGap time.Duration
	// MaxReplansPerMinute budgets event re-plans per wall minute. Zero
	// means 30.
	MaxReplansPerMinute int
	// EmulateTransitions suppresses decisions for the simulated On/Off
	// durations (scaled by TimeScale) after each reconfiguration,
	// mirroring the simulator's reconfiguration lock. Requires Archs.
	EmulateTransitions bool
	// Archs supplies On/Off durations for the emulated locks.
	Archs []profile.Arch
	// DecisionLogCap bounds the decision log (0 = 4096, negative
	// disables).
	DecisionLogCap int
	// Logf receives progress lines when non-nil.
	Logf func(format string, args ...any)
}

const (
	defaultLogCap = 4096
	// obsAlpha is the EWMA weight of the newest poll sample.
	obsAlpha = 0.5
)

// Controller runs the live control loop. Build with New, drive with Run.
type Controller struct {
	cfg    Config
	clock  Clock
	archs  map[string]profile.Arch
	names  []string // the table's candidates, in its count order
	inject chan Event

	mu        sync.Mutex
	start     time.Time
	lockUntil time.Time
	obsRate   float64
	haveObs   bool
	lastCount uint64
	lastPoll  time.Time
	lastPred  float64
	havePred  bool
	lastEvent time.Time
	events    []time.Time // event re-plans in the trailing minute
	log       []Decision
	stats     Stats
}

// New validates cfg, fills defaults, and builds a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Farm == nil {
		return nil, errors.New("ctrl: nil farm")
	}
	if cfg.Table == nil {
		return nil, errors.New("ctrl: nil combination table")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = time.Second
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("ctrl: invalid time scale %v", cfg.TimeScale)
	}
	if cfg.DecideEvery == 0 {
		cfg.DecideEvery = cfg.TimeScale
	}
	if cfg.DecideEvery <= 0 {
		return nil, fmt.Errorf("ctrl: invalid decide interval %v", cfg.DecideEvery)
	}
	if cfg.PollEvery == 0 {
		cfg.PollEvery = cfg.DecideEvery / 4
		if cfg.PollEvery == 0 {
			cfg.PollEvery = cfg.DecideEvery
		}
	}
	if cfg.PollEvery < 0 {
		return nil, fmt.Errorf("ctrl: invalid poll interval %v", cfg.PollEvery)
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.RateScale < 0 || math.IsNaN(cfg.RateScale) || math.IsInf(cfg.RateScale, 0) {
		return nil, fmt.Errorf("ctrl: invalid rate scale %v", cfg.RateScale)
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = 1
	}
	if cfg.Headroom < 1 || math.IsNaN(cfg.Headroom) || math.IsInf(cfg.Headroom, 0) {
		return nil, fmt.Errorf("ctrl: invalid headroom %v", cfg.Headroom)
	}
	if cfg.RateErrorFloor == 0 {
		cfg.RateErrorFloor = 1
	}
	if cfg.BurstWindow == 0 {
		cfg.BurstWindow = time.Second
	}
	if cfg.QoSBoost == 0 {
		cfg.QoSBoost = 1.25
	}
	if cfg.QoSBoost < 1 {
		return nil, fmt.Errorf("ctrl: invalid QoS boost %v", cfg.QoSBoost)
	}
	if cfg.MinReplanGap == 0 {
		cfg.MinReplanGap = cfg.DecideEvery / 4
	}
	if cfg.MaxReplansPerMinute == 0 {
		cfg.MaxReplansPerMinute = 30
	}
	if cfg.MaxReplansPerMinute < 0 {
		return nil, fmt.Errorf("ctrl: invalid replan budget %d", cfg.MaxReplansPerMinute)
	}
	if cfg.Predictor == nil && cfg.ObservedCount == nil {
		return nil, errors.New("ctrl: reactive mode (nil predictor) requires ObservedCount")
	}
	if cfg.EmulateTransitions && len(cfg.Archs) == 0 {
		return nil, errors.New("ctrl: emulated transitions require Archs")
	}
	switch {
	case cfg.DecisionLogCap == 0:
		cfg.DecisionLogCap = defaultLogCap
	case cfg.DecisionLogCap < 0:
		cfg.DecisionLogCap = 0
	}
	archs := make(map[string]profile.Arch, len(cfg.Archs))
	for _, a := range cfg.Archs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		archs[a.Name] = a
	}
	var names []string
	for _, a := range cfg.Table.Candidates() {
		names = append(names, a.Name)
	}
	return &Controller{
		cfg:    cfg,
		clock:  cfg.Clock,
		archs:  archs,
		names:  names,
		inject: make(chan Event, 8),
	}, nil
}

// Run executes the control loop until ctx is cancelled: an immediate
// initial decision, then periodic re-plans every DecideEvery aligned to
// the start instant, observation polls every PollEvery, and event re-plans
// as signals fire. It returns ctx.Err().
func (c *Controller) Run(ctx context.Context) error {
	now := c.clock.Now()
	c.mu.Lock()
	c.start = now
	c.lastPoll = now
	c.mu.Unlock()
	c.replan(ctx, TriggerInterval, "start")

	tick := 1
	nextTick := now.Add(c.cfg.DecideEvery)
	tickCh := c.clock.After(c.cfg.DecideEvery)
	pollCh := c.clock.After(c.cfg.PollEvery)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tickCh:
			c.replan(ctx, TriggerInterval, "")
			wall := c.clock.Now()
			c.mu.Lock()
			start := c.start
			c.mu.Unlock()
			for {
				tick++
				nextTick = start.Add(time.Duration(tick) * c.cfg.DecideEvery)
				if nextTick.After(wall) {
					break
				}
			}
			tickCh = c.clock.After(nextTick.Sub(wall))
		case <-pollCh:
			c.poll(ctx)
			pollCh = c.clock.After(c.cfg.PollEvery)
		case ev := <-c.inject:
			c.eventReplan(ctx, ev)
		}
	}
}

// poll samples the observed-rate estimate and checks the event triggers.
func (c *Controller) poll(ctx context.Context) {
	now := c.clock.Now()
	c.mu.Lock()
	if c.cfg.ObservedCount != nil {
		dt := now.Sub(c.lastPoll).Seconds()
		if dt > 0 {
			n := c.cfg.ObservedCount()
			inst := float64(n-c.lastCount) / dt / c.cfg.RateScale
			if !c.haveObs {
				c.obsRate = inst
				c.haveObs = true
			} else {
				c.obsRate = obsAlpha*inst + (1-obsAlpha)*c.obsRate
			}
			c.lastCount = n
			c.lastPoll = now
		}
	} else {
		c.lastPoll = now
	}
	obs, haveObs := c.obsRate, c.haveObs
	pred, havePred := c.lastPred, c.havePred
	c.mu.Unlock()

	if c.cfg.QoSDegraded != nil && c.cfg.QoSDegraded(now) {
		c.eventReplan(ctx, Event{Trigger: TriggerQoS, Reason: "latency window degraded"})
		return
	}
	if c.cfg.RateErrorThreshold > 0 && haveObs && havePred {
		err := math.Abs(obs*c.cfg.Headroom-pred) / math.Max(pred, c.cfg.RateErrorFloor)
		if err > c.cfg.RateErrorThreshold {
			c.eventReplan(ctx, Event{
				Trigger: TriggerRateError,
				Reason:  fmt.Sprintf("observed %.1f vs predicted %.1f", obs, pred),
			})
			return
		}
	}
	if c.cfg.BurstFactor > 0 && c.cfg.ArrivalRate != nil && haveObs {
		short := c.cfg.ArrivalRate(c.cfg.BurstWindow) / c.cfg.RateScale
		if short > c.cfg.BurstFactor*math.Max(obs, c.cfg.RateErrorFloor) {
			c.eventReplan(ctx, Event{
				Trigger: TriggerBurst,
				Reason:  fmt.Sprintf("burst %.1f vs sustained %.1f", short, obs),
			})
		}
	}
}

// eventReplan applies the rate limiter and, if allowed, re-plans.
func (c *Controller) eventReplan(ctx context.Context, ev Event) {
	now := c.clock.Now()
	c.mu.Lock()
	if !c.lastEvent.IsZero() && now.Sub(c.lastEvent) < c.cfg.MinReplanGap {
		c.stats.RateLimited++
		c.mu.Unlock()
		return
	}
	cutoff := now.Add(-time.Minute)
	kept := c.events[:0]
	for _, t := range c.events {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	c.events = kept
	if len(c.events) >= c.cfg.MaxReplansPerMinute {
		c.stats.RateLimited++
		c.mu.Unlock()
		return
	}
	c.lastEvent = now
	c.events = append(c.events, now)
	c.mu.Unlock()
	c.logf("ctrl: event replan (%s): %s", ev.Trigger, ev.Reason)
	c.replan(ctx, ev.Trigger, ev.Reason)
}

// replan evaluates one decision: predict (or observe), look up the
// combination, reconfigure on change.
func (c *Controller) replan(ctx context.Context, trigger Trigger, reason string) {
	now := c.clock.Now()
	c.mu.Lock()
	if c.cfg.EmulateTransitions && now.Before(c.lockUntil) {
		c.stats.Suppressed++
		c.mu.Unlock()
		return
	}
	simT := now.Sub(c.start).Seconds() / c.cfg.TimeScale.Seconds()
	obs, haveObs := c.obsRate, c.haveObs
	c.mu.Unlock()

	var p float64
	if c.cfg.Predictor != nil {
		p = c.cfg.Predictor.Predict(int(math.Round(simT))+c.cfg.PredictSkew) * c.cfg.Headroom
	} else if haveObs {
		p = obs * c.cfg.Headroom
	}
	if trigger != TriggerInterval && haveObs {
		// Event re-plans exist because the live signal contradicts the
		// plan; blend the observation in so the correction is real. Only
		// upward (the paper's scheduler never under-provisions against
		// its prediction), and never on interval re-plans, which must
		// stay bit-identical to the simulator's decision inputs.
		p = math.Max(p, obs*c.cfg.Headroom)
	}
	if trigger == TriggerQoS {
		p *= c.cfg.QoSBoost
	}
	if p < c.cfg.MinRate {
		p = c.cfg.MinRate
	}
	target := make(map[string]int, len(c.names))
	for i, n := range c.cfg.Table.Counts(p, nil) {
		if n > 0 {
			target[c.names[i]] = n
		}
	}
	current := c.cfg.Farm.Counts()
	changed := !sameCounts(target, current)
	d := Decision{
		At:        now,
		SimT:      simT,
		Trigger:   trigger,
		Observed:  obs,
		Predicted: p,
		Target:    target,
		Changed:   changed,
	}
	if changed {
		d.Err = c.cfg.Farm.Reconfigure(ctx, target)
		d.Applied = d.Err == nil
		if d.Applied && c.cfg.EmulateTransitions {
			lock := c.lockDuration(current, target)
			c.mu.Lock()
			c.lockUntil = c.clock.Now().Add(lock)
			c.mu.Unlock()
			c.logf("ctrl: simT %.0f (%s): reconfigured %v -> %v, locked %v",
				simT, trigger, current, target, lock)
		} else if d.Err != nil {
			c.logf("ctrl: simT %.0f (%s): reconfigure to %v failed: %v",
				simT, trigger, target, d.Err)
		} else {
			c.logf("ctrl: simT %.0f (%s): reconfigured %v -> %v",
				simT, trigger, current, target)
		}
	}
	c.record(d, p)
}

// lockDuration emulates the simulator's reconfiguration lock for a
// current→target change: boots run first (longest On duration of growing
// architectures), the retire phase follows (longest Off duration of
// shrinking ones), all scaled from simulated to wall time.
func (c *Controller) lockDuration(current, target map[string]int) time.Duration {
	var on, off time.Duration
	for name, a := range c.archs {
		cur, tgt := current[name], target[name]
		if tgt > cur && a.OnDuration > on {
			on = a.OnDuration
		}
		if tgt < cur && a.OffDuration > off {
			off = a.OffDuration
		}
	}
	simSeconds := (on + off).Seconds()
	return time.Duration(simSeconds * float64(c.cfg.TimeScale))
}

// record appends the decision to the log and updates the stats.
func (c *Controller) record(d Decision, predicted float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastPred = predicted
	c.havePred = true
	c.stats.Decisions++
	if d.Changed {
		c.stats.Changed++
	}
	if d.Trigger != TriggerInterval {
		c.stats.EventReplans++
	}
	if c.cfg.DecisionLogCap == 0 {
		return
	}
	if len(c.log) >= c.cfg.DecisionLogCap {
		keep := c.cfg.DecisionLogCap / 2
		copy(c.log, c.log[len(c.log)-keep:])
		c.log = c.log[:keep]
	}
	c.log = append(c.log, d)
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func sameCounts(a, b map[string]int) bool {
	for k, v := range a {
		if v != 0 && b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if v != 0 && a[k] != v {
			return false
		}
	}
	return true
}
