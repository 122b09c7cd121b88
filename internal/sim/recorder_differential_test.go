package sim

// Differential tests for the recorder: RunBMLRecorded on the interval
// integrator (bucket boundaries as span limits, per-span folding) must
// reproduce the legacy 1 Hz sampling loop — retained behind WithTickEngine
// as the oracle — bucket for bucket: energy-derived mean power within
// ≤1e-6 J per bucket-second, loads and reference draws to numerical noise,
// and every scheduler counter exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/trace"
)

func assertRecordingsAgree(t *testing.T, label string, tick, integ *Recording) {
	t.Helper()
	if tick.BucketSeconds != integ.BucketSeconds {
		t.Fatalf("%s: bucket widths differ: %d vs %d", label, tick.BucketSeconds, integ.BucketSeconds)
	}
	if len(tick.Power) != len(integ.Power) || len(tick.Load) != len(integ.Load) || len(tick.StaticPower) != len(integ.StaticPower) {
		t.Fatalf("%s: bucket counts differ: %d/%d/%d vs %d/%d/%d", label,
			len(tick.Power), len(tick.Load), len(tick.StaticPower),
			len(integ.Power), len(integ.Load), len(integ.StaticPower))
	}
	for b := range tick.Power {
		// Power is mean Watts over the bucket; ×width gives the bucket's
		// energy, which is the quantity held to the engine-wide 1e-6 J bar.
		if d := math.Abs(tick.Power[b]-integ.Power[b]) * float64(tick.BucketSeconds); d > energyTolJ {
			t.Errorf("%s: bucket %d energy diverges by %g J (tick %v W, integrator %v W)",
				label, b, d, tick.Power[b], integ.Power[b])
		}
		if d := math.Abs(tick.Load[b] - integ.Load[b]); d > 1e-9*(1+math.Abs(tick.Load[b])) {
			t.Errorf("%s: bucket %d load %v vs %v", label, b, tick.Load[b], integ.Load[b])
		}
		if d := math.Abs(tick.StaticPower[b] - integ.StaticPower[b]); d > 1e-9*(1+math.Abs(tick.StaticPower[b])) {
			t.Errorf("%s: bucket %d static power %v vs %v", label, b, tick.StaticPower[b], integ.StaticPower[b])
		}
	}
	assertEnginesAgree(t, label+"/result", tick.Result, integ.Result)
}

func recordBoth(t *testing.T, tr *trace.Trace, cfg BMLConfig, bucketSeconds int) (tick, integ *Recording) {
	t.Helper()
	planner := fastPlanner(t)
	tick, err := RunBMLRecorded(tr, planner, cfg, bucketSeconds, WithTickEngine())
	if err != nil {
		t.Fatal(err)
	}
	integ, err = RunBMLRecorded(tr, planner, cfg, bucketSeconds)
	if err != nil {
		t.Fatal(err)
	}
	return tick, integ
}

func TestDifferentialRecordingBucketWidths(t *testing.T) {
	// A plateau trace whose spans last many seconds is the shape where
	// bucket boundaries actually split integration spans; widths
	// that divide the trace, widths that do not, and a width larger than a
	// day all have to agree with per-second sampling.
	rng := rand.New(rand.NewSource(5))
	tr := randomStepTrace(rng, trace.SecondsPerDay+4321, 250, 45, 1200)
	for _, width := range []int{60, 300, 601, 7, 2 * trace.SecondsPerDay} {
		tick, integ := recordBoth(t, tr, BMLConfig{}, width)
		assertRecordingsAgree(t, fmt.Sprintf("width=%d", width), tick, integ)
	}
}

func TestDifferentialRecordingFaultsAndApp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomStepTrace(rng, 3*3600, 250, 20, 600)
	spec := app.StatelessWebServer()
	spec.Migration.Energy = 25
	spec.Migration.Duration = 3 * time.Second
	for name, cfg := range map[string]BMLConfig{
		"plain":          {},
		"faults":         {BootFaultProb: 0.35, FaultSeed: 11},
		"app-overhead":   {App: &spec, OverheadAware: true, AmortizeSeconds: 5},
		"noisy-per-sec":  {},
		"scaled-fleet-8": {},
	} {
		rtr := tr
		switch name {
		case "noisy-per-sec":
			// Per-second-varying demand makes every sample its own run
			// inside a span; recording must fold it exactly too.
			rtr = dayTrace(t, 1, 220)
		case "scaled-fleet-8":
			var err error
			if rtr, err = tr.Scale(8); err != nil {
				t.Fatal(err)
			}
		}
		tick, integ := recordBoth(t, rtr, cfg, 300)
		assertRecordingsAgree(t, name, tick, integ)
	}
}

// TestRecordedMatchesPlainRunOnPlateaus pins the relationship between the
// recorded aggregate and a plain (no-telemetry) run on a trace whose
// spans are actually split by bucket boundaries: the totals may differ
// only by summation regrouping, far below the engine tolerance.
func TestRecordedMatchesPlainRunOnPlateaus(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomStepTrace(rng, trace.SecondsPerDay, 250, 120, 3600)
	planner := fastPlanner(t)
	rec, err := RunBMLRecorded(tr, planner, BMLConfig{}, 600)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(rec.Result.TotalEnergy - plain.TotalEnergy)); d > energyTolJ {
		t.Errorf("recorded total %v vs plain %v (Δ %g J)", rec.Result.TotalEnergy, plain.TotalEnergy, d)
	}
	if rec.Result.Decisions != plain.Decisions || rec.Result.SwitchOns != plain.SwitchOns {
		t.Errorf("recorded counters {dec %d on %d} vs plain {dec %d on %d}",
			rec.Result.Decisions, rec.Result.SwitchOns, plain.Decisions, plain.SwitchOns)
	}
}
