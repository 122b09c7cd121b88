package ctrl

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/profile"
)

func testArch(name string, perf float64, on, off time.Duration) profile.Arch {
	return profile.Arch{
		Name: name, MaxPerf: perf,
		IdlePower: 2, MaxPower: 5,
		OnDuration: on, OnEnergy: 5,
		OffDuration: off, OffEnergy: 2,
	}
}

// stepTable is a fake bml.Lookup: ceil(rate/perf) nodes of one
// architecture.
type stepTable struct{ arch profile.Arch }

func (t stepTable) Candidates() []profile.Arch { return []profile.Arch{t.arch} }

func (t stepTable) Counts(rate float64, dst []int) []int {
	return append(dst[:0], int(math.Ceil(rate/t.arch.MaxPerf)))
}

// fakeFarm records reconfigurations.
type fakeFarm struct {
	mu     sync.Mutex
	counts map[string]int
	calls  []map[string]int
}

func newFakeFarm() *fakeFarm { return &fakeFarm{counts: map[string]int{}} }

func (f *fakeFarm) Reconfigure(ctx context.Context, target map[string]int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := make(map[string]int, len(target))
	for k, v := range target {
		cp[k] = v
	}
	f.counts = cp
	f.calls = append(f.calls, cp)
	return nil
}

func (f *fakeFarm) Counts() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := make(map[string]int, len(f.counts))
	for k, v := range f.counts {
		cp[k] = v
	}
	return cp
}

// fakePredictor forecasts via a function of the simulated second.
type fakePredictor struct{ fn func(t int) float64 }

func (p fakePredictor) Predict(t int) float64 { return p.fn(t) }
func (p fakePredictor) Name() string          { return "fake" }

func TestFakeClockOrderingAndBlockUntil(t *testing.T) {
	c := NewFakeClock(time.Unix(0, 0))
	a := c.After(3 * time.Second)
	b := c.After(time.Second)
	done := make(chan struct{})
	go func() {
		c.BlockUntil(2)
		close(done)
	}()
	<-done // both timers registered
	c.Advance(5 * time.Second)
	ta, tb := <-a, <-b
	if !tb.Before(ta) {
		t.Errorf("timers fired out of deadline order: %v then %v", tb, ta)
	}
	if got := c.Now(); got != time.Unix(5, 0) {
		t.Errorf("Now = %v, want %v", got, time.Unix(5, 0))
	}
	// Immediate fire for non-positive durations.
	select {
	case <-c.After(0):
	default:
		t.Error("After(0) did not fire immediately")
	}
}

func TestNewValidation(t *testing.T) {
	arch := testArch("a", 100, time.Second, time.Second)
	table := stepTable{arch}
	farm := newFakeFarm()
	cases := []Config{
		{Table: table, Predictor: fakePredictor{func(int) float64 { return 1 }}}, // nil farm
		{Farm: farm, Predictor: fakePredictor{func(int) float64 { return 1 }}},   // nil table
		{Farm: farm, Table: table}, // reactive without ObservedCount
		{Farm: farm, Table: table, Predictor: fakePredictor{func(int) float64 { return 1 }},
			EmulateTransitions: true}, // emulated transitions without archs
		{Farm: farm, Table: table, Predictor: fakePredictor{func(int) float64 { return 1 }},
			Headroom: 0.5}, // headroom below 1
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{Farm: farm, Table: table,
		Predictor: fakePredictor{func(int) float64 { return 1 }}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// startController runs the controller on a fake clock and waits until the
// loop is parked on its two timers.
func startController(t *testing.T, cfg Config, clock *FakeClock) (*Controller, context.CancelFunc) {
	t.Helper()
	cfg.Clock = clock
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go c.Run(ctx)
	clock.BlockUntil(2)
	return c, cancel
}

// advance moves the fake clock and waits for the loop to re-park, so every
// timer that fired has been fully handled.
func advance(clock *FakeClock, d time.Duration) {
	clock.Advance(d)
	clock.BlockUntil(2)
}

// TestControllerIntervalDecisions drives the periodic loop at simulated
// speed: an immediate initial decision, then a re-plan per decide interval
// that reconfigures exactly when the prediction crosses a combination
// boundary.
func TestControllerIntervalDecisions(t *testing.T) {
	arch := testArch("a", 100, time.Second, time.Second)
	clock := NewFakeClock(time.Unix(1000, 0))
	farm := newFakeFarm()
	c, cancel := startController(t, Config{
		Farm:  farm,
		Table: stepTable{arch},
		Predictor: fakePredictor{func(tsec int) float64 {
			if tsec < 30 {
				return 50
			}
			return 250
		}},
		TimeScale:   time.Second,
		DecideEvery: 10 * time.Second,
		PollEvery:   5 * time.Second,
	}, clock)
	defer cancel()

	for i := 0; i < 3; i++ {
		advance(clock, 10*time.Second) // ticks at sim 10, 20, 30
	}
	decs := c.Decisions()
	if len(decs) != 4 {
		t.Fatalf("got %d decisions, want 4 (sim 0,10,20,30): %+v", len(decs), decs)
	}
	var changed []Decision
	for _, d := range decs {
		if d.Trigger != TriggerInterval {
			t.Errorf("unexpected trigger %q", d.Trigger)
		}
		if d.Changed {
			changed = append(changed, d)
		}
	}
	if len(changed) != 2 {
		t.Fatalf("got %d changed decisions, want 2: %+v", len(changed), changed)
	}
	if changed[0].SimT != 0 || changed[0].Target["a"] != 1 {
		t.Errorf("first decision = simT %v target %v, want 0 / a:1", changed[0].SimT, changed[0].Target)
	}
	if changed[1].SimT != 30 || changed[1].Target["a"] != 3 {
		t.Errorf("second decision = simT %v target %v, want 30 / a:3", changed[1].SimT, changed[1].Target)
	}
	if got := farm.Counts()["a"]; got != 3 {
		t.Errorf("farm at a:%d, want 3", got)
	}
	st := c.Stats()
	if st.Decisions != 4 || st.Changed != 2 || st.EventReplans != 0 {
		t.Errorf("stats = %+v, want 4 decisions / 2 changed / 0 events", st)
	}
}

// TestControllerRateErrorEarlyReplan pins the headline event behavior: the
// observed arrival rate contradicting the prediction forces a corrective
// re-plan long before the next interval tick would have seen it.
func TestControllerRateErrorEarlyReplan(t *testing.T) {
	arch := testArch("a", 100, time.Second, time.Second)
	clock := NewFakeClock(time.Unix(1000, 0))
	farm := newFakeFarm()
	var count atomic.Uint64
	c, cancel := startController(t, Config{
		Farm:               farm,
		Table:              stepTable{arch},
		Predictor:          fakePredictor{func(int) float64 { return 50 }},
		TimeScale:          time.Second,
		DecideEvery:        60 * time.Second, // next tick far away
		PollEvery:          time.Second,
		RateErrorThreshold: 0.5,
		MinReplanGap:       time.Second,
		ObservedCount:      count.Load,
	}, clock)
	defer cancel()

	if got := farm.Counts()["a"]; got != 1 {
		t.Fatalf("initial farm a:%d, want 1", got)
	}
	// 300 arrivals land within one poll second: observed 300 vs predicted
	// 50 is a 5x error.
	count.Store(300)
	advance(clock, time.Second) // poll measures the rate
	advance(clock, time.Second) // next poll triggers with a settled EWMA
	decs := c.Decisions()
	var event *Decision
	for i := range decs {
		if decs[i].Trigger == TriggerRateError {
			event = &decs[i]
			break
		}
	}
	if event == nil {
		t.Fatalf("no rate-error re-plan in %+v", decs)
	}
	if event.SimT >= 60 {
		t.Errorf("event re-plan at sim %v, want before the 60s tick", event.SimT)
	}
	if !event.Changed || event.Target["a"] < 2 {
		t.Errorf("event re-plan target %v (changed=%v), want scale-up", event.Target, event.Changed)
	}
	if got := c.Stats().EventReplans; got < 1 {
		t.Errorf("EventReplans = %d, want >= 1", got)
	}
}

// TestControllerQoSTriggerBoostsCapacity: a degraded latency window forces
// an early re-plan with emergency headroom on top of the estimate.
func TestControllerQoSTriggerBoostsCapacity(t *testing.T) {
	arch := testArch("a", 100, time.Second, time.Second)
	clock := NewFakeClock(time.Unix(1000, 0))
	farm := newFakeFarm()
	var degraded atomic.Bool
	c, cancel := startController(t, Config{
		Farm:        farm,
		Table:       stepTable{arch},
		Predictor:   fakePredictor{func(int) float64 { return 90 }},
		TimeScale:   time.Second,
		DecideEvery: 60 * time.Second,
		PollEvery:   time.Second,
		QoSBoost:    1.25,
		QoSDegraded: func(time.Time) bool { return degraded.Load() },
	}, clock)
	defer cancel()

	if got := farm.Counts()["a"]; got != 1 {
		t.Fatalf("initial farm a:%d, want 1", got)
	}
	degraded.Store(true)
	advance(clock, time.Second)
	decs := c.Decisions()
	var qos *Decision
	for i := range decs {
		if decs[i].Trigger == TriggerQoS {
			qos = &decs[i]
			break
		}
	}
	if qos == nil {
		t.Fatalf("no qos re-plan in %+v", decs)
	}
	// 90 × 1.25 = 112.5 → two nodes.
	if !qos.Changed || qos.Target["a"] != 2 {
		t.Errorf("qos re-plan target %v (changed=%v), want a:2", qos.Target, qos.Changed)
	}
	if qos.SimT >= 60 {
		t.Errorf("qos re-plan at sim %v, want before the next tick", qos.SimT)
	}
}

// TestControllerEventRateLimiter pins both limiter stages: the minimum gap
// and the per-minute budget.
func TestControllerEventRateLimiter(t *testing.T) {
	arch := testArch("a", 100, time.Second, time.Second)
	clock := NewFakeClock(time.Unix(1000, 0))
	farm := newFakeFarm()
	c, cancel := startController(t, Config{
		Farm:                farm,
		Table:               stepTable{arch},
		Predictor:           fakePredictor{func(int) float64 { return 50 }},
		TimeScale:           time.Second,
		DecideEvery:         10 * time.Minute,
		PollEvery:           time.Minute,
		MinReplanGap:        10 * time.Second,
		MaxReplansPerMinute: 2,
	}, clock)
	defer cancel()

	inject := func() {
		before := c.Stats()
		c.Inject(Event{Trigger: TriggerBurst, Reason: "test"})
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := c.Stats()
			if st.EventReplans+st.RateLimited > before.EventReplans+before.RateLimited {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("injected event never processed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	inject() // accepted
	inject() // within MinReplanGap: limited
	clock.Advance(15 * time.Second)
	inject() // gap ok, budget 2/min reached with this one
	clock.Advance(15 * time.Second)
	inject() // budget exhausted: limited
	st := c.Stats()
	if st.EventReplans != 2 || st.RateLimited != 2 {
		t.Fatalf("stats = %+v, want 2 event re-plans and 2 rate-limited", st)
	}
	// A minute later the budget refills.
	clock.Advance(2 * time.Minute)
	inject()
	if st := c.Stats(); st.EventReplans != 3 {
		t.Errorf("after budget refill EventReplans = %d, want 3", st.EventReplans)
	}
}

// TestControllerEmulatedTransitionLock: after a reconfiguration the
// controller suppresses decisions for the simulated On/Off durations, the
// way the simulator's scheduler refuses to decide mid-transition.
func TestControllerEmulatedTransitionLock(t *testing.T) {
	arch := testArch("a", 100, 30*time.Second, 10*time.Second)
	clock := NewFakeClock(time.Unix(1000, 0))
	farm := newFakeFarm()
	c, cancel := startController(t, Config{
		Farm:  farm,
		Table: stepTable{arch},
		Predictor: fakePredictor{func(tsec int) float64 {
			if tsec < 10 {
				return 50
			}
			return 250
		}},
		TimeScale:          time.Second,
		DecideEvery:        10 * time.Second,
		PollEvery:          5 * time.Second,
		EmulateTransitions: true,
		Archs:              []profile.Arch{arch},
	}, clock)
	defer cancel()

	// Initial decision boots one node: the emulated lock holds for the
	// 30s On duration, so the ticks at sim 10 and 20 are suppressed even
	// though the prediction has already jumped.
	for i := 0; i < 3; i++ {
		advance(clock, 10*time.Second)
	}
	decs := c.Decisions()
	var changed []Decision
	for _, d := range decs {
		if d.Changed {
			changed = append(changed, d)
		}
	}
	if len(changed) != 2 {
		t.Fatalf("changed decisions = %+v, want 2 (sim 0 and 30)", changed)
	}
	if changed[1].SimT != 30 {
		t.Errorf("scale-up at sim %v, want 30 (first tick after the lock)", changed[1].SimT)
	}
	st := c.Stats()
	if st.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2 (ticks at sim 10 and 20)", st.Suppressed)
	}
}
