package sim

// Raw-trace differential tests for the interval integrator: on un-quantized
// 1 Hz traces (every second a load change) the integrator must reproduce
// the tick oracle to ≤1e-6 J with exact counters, across all four
// scenarios and the scheduler extensions. This is the contract that lets
// the integrator be the only production engine.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/predict"
	"repro/internal/trace"
)

// rawWCSegment generates an un-quantized World Cup day and slices an
// hours-long segment out of it starting at startHour. The generator's
// per-second noise makes virtually every sample a change point, which is
// exactly the regime the integrator targets.
func rawWCSegment(t *testing.T, seed int64, startHour, hours int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 1
	cfg.Seed = seed
	cfg.PeakRate = 260 // sized for the fastPlanner catalog
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := tr.Slice(startHour*3600, (startHour+hours)*3600)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestRawTraceIntegratorDifferential(t *testing.T) {
	// BML on raw WC'98 segments: the integrator against the tick oracle.
	for _, c := range []struct {
		seed             int64
		startHour, hours int
	}{
		{seed: 1, startHour: 0, hours: 3},   // night ramp incl. trace start
		{seed: 2, startHour: 11, hours: 3},  // midday peak
		{seed: 99, startHour: 21, hours: 3}, // evening decay incl. trace end
	} {
		c := c
		t.Run(fmt.Sprintf("bml/seed=%d,h=%d", c.seed, c.startHour), func(t *testing.T) {
			t.Parallel()
			tr := rawWCSegment(t, c.seed, c.startHour, c.hours)
			tick, integ := runBoth(t, tr, fastPlanner(t), BMLConfig{})
			assertEnginesAgree(t, "tick-vs-integrator", tick, integ)
			if integ.Decisions == 0 {
				t.Error("degenerate case: no reconfiguration happened")
			}
		})
	}

	// All four scenarios on one raw segment. The upper/lower bounds run
	// their per-day fold kernels by default; BML runs the demand fold.
	// Sweep also exercises the engines under concurrency, keeping the
	// suite race-clean by construction.
	t.Run("four-scenarios", func(t *testing.T) {
		t.Parallel()
		tr := rawWCSegment(t, 7, 8, 4)
		planner := fastPlanner(t)
		for _, sc := range []Scenario{ScenarioUpperBoundGlobal, ScenarioUpperBoundPerDay, ScenarioBML, ScenarioLowerBound} {
			tickJob := SweepJob{Trace: tr, Planner: planner, Scenario: sc, Options: []Option{WithTickEngine()}}
			integJob := SweepJob{Trace: tr, Planner: planner, Scenario: sc}
			res := sweepAll([]SweepJob{tickJob, integJob}, 2)
			if res[0].Err != nil || res[1].Err != nil {
				t.Fatalf("%s: %v / %v", sc, res[0].Err, res[1].Err)
			}
			assertEnginesAgree(t, string(sc), res[0].Result, res[1].Result)
		}
	})

	// Scheduler extensions on raw traces: overhead-aware skip accounting,
	// malleability adjustments and migration locks, and boot faults.
	// Counters must stay exact even though the
	// integrator accounts for skipped/adjusted seconds via the decision
	// scan rather than per-second decide calls.
	t.Run("config-variants", func(t *testing.T) {
		t.Parallel()
		tr := rawWCSegment(t, 5, 10, 2)
		spec := app.StatelessWebServer()
		spec.Migration.Energy = 25
		spec.Migration.Duration = 3 * time.Second
		for name, cfg := range map[string]BMLConfig{
			"overhead-aware": {OverheadAware: true, AmortizeSeconds: 5},
			"app-migration":  {App: &spec},
			"composed":       {App: &spec, OverheadAware: true, AmortizeSeconds: 5},
			"boot-faults":    {BootFaultProb: 0.3, FaultSeed: 17},
		} {
			tick, integ := runBoth(t, tr, fastPlanner(t), cfg)
			assertEnginesAgree(t, name+"/tick-vs-integrator", tick, integ)
		}
	})

	// Predictors whose forecast changes every second force the decision
	// scan through every sample; results must still match exactly.
	t.Run("per-second-predictors", func(t *testing.T) {
		t.Parallel()
		tr := rawWCSegment(t, 3, 14, 2)
		base, err := predict.NewLookaheadMax(tr, 60)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := predict.NewErrorInjector(base, 0.2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]predict.Predictor{
			"oracle":         predict.NewOracle(tr),
			"last-value":     predict.NewLastValue(tr),
			"error-injected": noisy,
		} {
			tick, integ := runBoth(t, tr, fastPlanner(t), BMLConfig{Predictor: p})
			assertEnginesAgree(t, name+"/tick-vs-integrator", tick, integ)
		}
	})

	// Multi-day raw segment: spans must split at day boundaries so the
	// daily energy series buckets exactly.
	t.Run("multi-day", func(t *testing.T) {
		t.Parallel()
		cfg := trace.DefaultWorldCupConfig()
		cfg.Days = 2
		cfg.Seed = 21
		cfg.PeakRate = 260
		full, err := trace.GenerateWorldCup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := full.Slice(20*3600, 20*3600+10*3600) // crosses the day-1/day-2 boundary
		if err != nil {
			t.Fatal(err)
		}
		tick, integ := runBoth(t, tr, fastPlanner(t), BMLConfig{})
		assertEnginesAgree(t, "tick-vs-integrator", tick, integ)
	})
}

func TestWakeCeil(t *testing.T) {
	cases := []struct {
		w    float64
		want int
	}{
		{1, 1}, {10, 10}, {0.5, 1}, {10.5, 11}, {189, 189}, {2.0000000001, 2},
	}
	for _, c := range cases {
		if got := wakeCeil(c.w); got != c.want {
			t.Errorf("wakeCeil(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}
