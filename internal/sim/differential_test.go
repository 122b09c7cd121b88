package sim

// Differential tests: the interval integrator must reproduce the legacy
// 1 Hz tick engine exactly — same energy (≤ 1e-6 J), same QoS accounting,
// same reconfiguration counters — on randomized traces, cluster mixes,
// fault schedules, and scheduler extensions. The tick loop is the oracle:
// it implements the paper's integration scheme literally, one step per
// simulated second.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

// energyTolJ is the maximum tolerated divergence between engines on any
// energy aggregate. The engines sum the same physical quantities in a
// different order; compensated accumulation keeps the gap far below this.
const energyTolJ = 1e-6

// randomStepTrace builds a piecewise-constant trace: load levels hold for
// random durations between minHold and maxHold seconds. Runs of equal
// samples fold in one step; correctness must not depend on it (other
// tests feed per-second-varying traces).
func randomStepTrace(rng *rand.Rand, seconds int, maxLoad float64, minHold, maxHold int) *trace.Trace {
	vals := make([]float64, seconds)
	for i := 0; i < seconds; {
		hold := minHold + rng.Intn(maxHold-minHold+1)
		level := maxLoad * rng.Float64() * rng.Float64() // skew toward low load
		for j := 0; j < hold && i < seconds; j++ {
			vals[i] = level
			i++
		}
	}
	return trace.MustNew(vals)
}

// randomRigCatalog derives a valid Big/Little (sometimes Big/Medium/Little)
// catalog with randomized performance, power, and transition profiles, in
// the style of internal/bml's property tests.
func randomRigCatalog(rng *rand.Rand) []profile.Arch {
	n := 2 + rng.Intn(2)
	archs := make([]profile.Arch, n)
	perf := 8 + 16*rng.Float64()
	for i := n - 1; i >= 0; i-- { // build Little→Big with growing perf
		idle := 1 + 20*rng.Float64()
		dyn := 5 + 60*rng.Float64()
		archs[i] = profile.Arch{
			Name:        fmt.Sprintf("arch%d", i),
			MaxPerf:     math.Round(perf),
			IdlePower:   power.Watts(idle),
			MaxPower:    power.Watts(idle + dyn),
			OnDuration:  time.Duration(1+rng.Intn(30)) * time.Second,
			OnEnergy:    power.Joules(20 + 800*rng.Float64()),
			OffDuration: time.Duration(1+rng.Intn(10)) * time.Second,
			OffEnergy:   power.Joules(5 + 100*rng.Float64()),
		}
		perf *= 3 + 5*rng.Float64()
	}
	return archs
}

func assertEnginesAgree(t *testing.T, label string, tick, integ *Result) {
	t.Helper()
	if d := math.Abs(float64(tick.TotalEnergy - integ.TotalEnergy)); d > energyTolJ {
		t.Errorf("%s: total energy diverges by %g J (tick %v, integrator %v)", label, d, tick.TotalEnergy, integ.TotalEnergy)
	}
	if len(tick.DailyEnergy) != len(integ.DailyEnergy) {
		t.Fatalf("%s: daily bucket counts differ: %d vs %d", label, len(tick.DailyEnergy), len(integ.DailyEnergy))
	}
	for d := range tick.DailyEnergy {
		if diff := math.Abs(float64(tick.DailyEnergy[d] - integ.DailyEnergy[d])); diff > energyTolJ {
			t.Errorf("%s: day %d energy diverges by %g J", label, d+1, diff)
		}
	}
	if tick.Decisions != integ.Decisions || tick.SwitchOns != integ.SwitchOns ||
		tick.SwitchOffs != integ.SwitchOffs || tick.Skipped != integ.Skipped {
		t.Errorf("%s: scheduler counters differ: tick {dec %d on %d off %d skip %d} vs integrator {dec %d on %d off %d skip %d}",
			label, tick.Decisions, tick.SwitchOns, tick.SwitchOffs, tick.Skipped,
			integ.Decisions, integ.SwitchOns, integ.SwitchOffs, integ.Skipped)
	}
	if d := math.Abs(float64(tick.MigrationEnergy - integ.MigrationEnergy)); d > energyTolJ {
		t.Errorf("%s: migration energy diverges by %g J", label, d)
	}
	if tick.QoS.ViolationSeconds() != integ.QoS.ViolationSeconds() {
		t.Errorf("%s: violation seconds differ: %v vs %v", label, tick.QoS.ViolationSeconds(), integ.QoS.ViolationSeconds())
	}
	if tick.QoS.Seconds() != integ.QoS.Seconds() {
		t.Errorf("%s: observed seconds differ: %v vs %v", label, tick.QoS.Seconds(), integ.QoS.Seconds())
	}
	if d := math.Abs(tick.QoS.Availability() - integ.QoS.Availability()); d > 1e-12 {
		t.Errorf("%s: availability differs by %g", label, d)
	}
	// The breakdown components accumulate inside the machine automata with
	// plain (uncompensated) summation, so allow a slightly looser bound.
	const bdTol = 1e-5
	if d := math.Abs(float64(tick.Breakdown.Transition - integ.Breakdown.Transition)); d > bdTol {
		t.Errorf("%s: transition breakdown diverges by %g J", label, d)
	}
	if d := math.Abs(float64(tick.Breakdown.Idle - integ.Breakdown.Idle)); d > bdTol {
		t.Errorf("%s: idle breakdown diverges by %g J", label, d)
	}
	if d := math.Abs(float64(tick.Breakdown.Dynamic - integ.Breakdown.Dynamic)); d > bdTol {
		t.Errorf("%s: dynamic breakdown diverges by %g J", label, d)
	}
}

// runBoth executes the BML scenario on the tick oracle and the default
// engine.
func runBoth(t *testing.T, tr *trace.Trace, planner *bml.Planner, cfg BMLConfig) (tick, integ *Result) {
	t.Helper()
	tick, err := RunBML(tr, planner, cfg, WithTickEngine())
	if err != nil {
		t.Fatal(err)
	}
	integ, err = RunBML(tr, planner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tick, integ
}

func TestDifferentialBMLRandomRigs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			catalog := randomRigCatalog(rng)
			planner, err := bml.NewPlanner(catalog, bml.WithPreFilteredCandidates())
			if err != nil {
				t.Fatal(err)
			}
			maxLoad := 2.5 * catalog[0].MaxPerf
			tr := randomStepTrace(rng, 2*3600, maxLoad, 30, 900)
			tick, integ := runBoth(t, tr, planner, BMLConfig{})
			assertEnginesAgree(t, "bml", tick, integ)
			if integ.Decisions == 0 {
				t.Error("degenerate case: no reconfiguration happened")
			}
		})
	}
}

func TestDifferentialBMLMultiDayDailySeries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	planner := fastPlanner(t)
	tr := randomStepTrace(rng, 2*trace.SecondsPerDay+4321, 250, 60, 1800)
	tick, integ := runBoth(t, tr, planner, BMLConfig{})
	assertEnginesAgree(t, "bml-2day", tick, integ)
	if len(integ.DailyEnergy) != 2 {
		t.Fatalf("daily buckets = %d, want 2", len(integ.DailyEnergy))
	}
}

func TestDifferentialBMLFaultSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planner := fastPlanner(t)
	for _, prob := range []float64{0.1, 0.35, 1} {
		tr := randomStepTrace(rng, 3600, 250, 20, 600)
		cfg := BMLConfig{BootFaultProb: prob, FaultSeed: int64(100 * prob)}
		tick, integ := runBoth(t, tr, planner, cfg)
		assertEnginesAgree(t, fmt.Sprintf("faults=%g", prob), tick, integ)
	}
}

func TestDifferentialBMLOverheadAwareAndApp(t *testing.T) {
	// Flapping load around a combination threshold plus an app spec with
	// migration overheads: exercises skip counting, the two-phase retire
	// path, and migration locks.
	vals := make([]float64, 3*3600)
	for i := range vals {
		base := 95.0
		if (i/40)%2 == 1 {
			base = 101
		}
		vals[i] = base
	}
	tr := trace.MustNew(vals)
	planner := fastPlanner(t)
	spec := app.StatelessWebServer()
	spec.Migration.Energy = 25
	spec.Migration.Duration = 3 * time.Second
	for name, cfg := range map[string]BMLConfig{
		"overhead-aware": {OverheadAware: true, AmortizeSeconds: 5},
		"app-migration":  {App: &spec},
		"composed":       {App: &spec, OverheadAware: true, AmortizeSeconds: 5},
	} {
		tick, integ := runBoth(t, tr, planner, cfg)
		assertEnginesAgree(t, name, tick, integ)
	}
	// The overhead-aware run must actually skip (per-second accounting).
	tick, integ := runBoth(t, tr, planner, BMLConfig{OverheadAware: true, AmortizeSeconds: 5})
	if tick.Skipped == 0 || tick.Skipped != integ.Skipped {
		t.Errorf("skip accounting: tick %d vs integrator %d (want equal, nonzero)", tick.Skipped, integ.Skipped)
	}
}

func TestDifferentialBMLPerSecondPredictors(t *testing.T) {
	// Predictors whose forecast changes every second force the decision
	// scan through every second; results must still match exactly.
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	base, err := predict.NewLookaheadMax(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := predict.NewErrorInjector(base, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := predict.NewEWMA(tr, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]predict.Predictor{
		"oracle":         predict.NewOracle(tr),
		"last-value":     predict.NewLastValue(tr),
		"ewma":           ewma,
		"error-injected": noisy,
	} {
		tick, integ := runBoth(t, tr, planner, BMLConfig{Predictor: p})
		assertEnginesAgree(t, name, tick, integ)
	}
}

func TestDifferentialHomogeneousAndLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	planner := fastPlanner(t)
	tr := randomStepTrace(rng, trace.SecondsPerDay+7777, 280, 10, 3600)
	for _, sc := range []Scenario{ScenarioUpperBoundGlobal, ScenarioUpperBoundPerDay, ScenarioLowerBound} {
		tickJob := SweepJob{Trace: tr, Planner: planner, Scenario: sc, Options: []Option{WithTickEngine()}}
		integJob := SweepJob{Trace: tr, Planner: planner, Scenario: sc}
		res := sweepAll([]SweepJob{tickJob, integJob}, 2)
		if res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("%s: %v / %v", sc, res[0].Err, res[1].Err)
		}
		assertEnginesAgree(t, string(sc), res[0].Result, res[1].Result)
	}
}

// TestPropertyEnginesAgree is the quick-check form: arbitrary seeds drive
// the trace, catalog, and scheduler options, and the engines must agree on
// every one.
func TestPropertyEnginesAgree(t *testing.T) {
	f := func(seedRaw int64, faultRaw, overheadRaw uint8) bool {
		seed := seedRaw % (1 << 30)
		rng := rand.New(rand.NewSource(seed))
		catalog := randomRigCatalog(rng)
		planner, err := bml.NewPlanner(catalog, bml.WithPreFilteredCandidates())
		if err != nil {
			return false
		}
		tr := randomStepTrace(rng, 1800+rng.Intn(1800), 2*catalog[0].MaxPerf, 10, 600)
		cfg := BMLConfig{}
		if faultRaw%3 == 0 {
			cfg.BootFaultProb = 0.25
			cfg.FaultSeed = seed
		}
		if overheadRaw%2 == 0 {
			cfg.OverheadAware = true
			cfg.AmortizeSeconds = float64(1 + rng.Intn(400))
		}
		tick, err := RunBML(tr, planner, cfg, WithTickEngine())
		if err != nil {
			return false
		}
		integ, err := RunBML(tr, planner, cfg)
		if err != nil {
			return false
		}
		return math.Abs(float64(tick.TotalEnergy-integ.TotalEnergy)) <= energyTolJ &&
			tick.Decisions == integ.Decisions &&
			tick.SwitchOns == integ.SwitchOns &&
			tick.SwitchOffs == integ.SwitchOffs &&
			tick.Skipped == integ.Skipped &&
			tick.QoS.ViolationSeconds() == integ.QoS.ViolationSeconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
