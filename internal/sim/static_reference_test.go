package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/trace"
)

// nextStaticEvent is the event timeline the reference loops step over: the
// next load change or day boundary after t, whichever comes first.
func nextStaticEvent(tr *trace.Trace, t int) int {
	return min(tr.NextChange(t), (t/trace.SecondsPerDay+1)*trace.SecondsPerDay)
}

// runHomogeneousEvent is the per-sample event loop the static fold kernels
// replaced, kept as their bit-identical reference: one closed-form interval
// per event (load change or day boundary).
func runHomogeneousEvent(tr *trace.Trace, arch profile.Arch, sizeForDay func(day int) int, res *Result) error {
	n := tr.Len()
	for t := 0; t < n; {
		next := nextStaticEvent(tr, t)
		dt := float64(next - t)
		nodes := sizeForDay(t / trace.SecondsPerDay)
		demand := tr.At(t)
		served := math.Min(demand, float64(nodes)*arch.MaxPerf)
		total := fleetPowerN(nodes, served, arch.MaxPerf, float64(arch.MaxPower), float64(arch.IdlePower))
		idle := float64(nodes) * float64(arch.IdlePower)
		e, err := power.IntervalEnergy(power.Watts(total), dt)
		if err != nil {
			return err
		}
		res.Breakdown.Idle += power.Joules(idle * dt)
		res.Breakdown.Dynamic += power.Joules((total - idle) * dt)
		res.addEnergy(t, e)
		if err := res.QoS.Observe(demand, served, dt); err != nil {
			return err
		}
		t = next
	}
	return nil
}

// runLowerBoundEvent is the LowerBound counterpart of runHomogeneousEvent.
func runLowerBoundEvent(tr *trace.Trace, solver *bml.ExactSolver, res *Result) error {
	n := tr.Len()
	for t := 0; t < n; {
		next := nextStaticEvent(tr, t)
		dt := float64(next - t)
		demand := tr.At(t)
		e, err := power.IntervalEnergy(solver.PowerAt(demand), dt)
		if err != nil {
			return err
		}
		res.addEnergy(t, e)
		if err := res.QoS.Observe(demand, demand, dt); err != nil {
			return err
		}
		t = next
	}
	return nil
}

// staticFoldTraces are the bit-identity inputs: raw 1 Hz samples, 600 s
// plateaus, a fleet-scaled load, a trailing partial day, stretches of zero
// demand (one across a day edge), and a partial day busier than the last
// complete one, so UpperBound PerDay's fallback sizing falls short.
func staticFoldTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 3
	cfg.Seed = 41
	raw, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	must := func(tr *trace.Trace, err error) *trace.Trace {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	const day = trace.SecondsPerDay
	vals := raw.Values()
	for _, z := range [][2]int{{1000, 5000}, {day - 300, day + 300}, {len(vals) - 600, len(vals)}} {
		for i := z[0]; i < z[1]; i++ {
			vals[i] = 0
		}
	}
	fallback := raw.Values()[day-day/2 : 2*day]
	for i := range fallback[:day] {
		fallback[i] *= 0.25
	}
	return map[string]*trace.Trace{
		"raw":             raw,
		"quantized-600":   must(raw.Quantize(600)),
		"fleet-scaled":    must(must(raw.Slice(0, day)).Scale(20)),
		"partial-day":     must(raw.Slice(0, 2*day+12345)),
		"zero-stretches":  must(trace.New(vals)),
		"perday-fallback": must(trace.New(fallback)),
	}
}

// assertBitIdentical requires every Result field of the fold kernel to
// equal the reference loop's exactly (==, no tolerance).
func assertBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TotalEnergy != want.TotalEnergy {
		t.Errorf("%s: TotalEnergy %v, reference %v", label, got.TotalEnergy, want.TotalEnergy)
	}
	if len(got.DailyEnergy) != len(want.DailyEnergy) {
		t.Fatalf("%s: %d days, reference %d", label, len(got.DailyEnergy), len(want.DailyEnergy))
	}
	for d := range want.DailyEnergy {
		if got.DailyEnergy[d] != want.DailyEnergy[d] {
			t.Errorf("%s: day %d energy %v, reference %v", label, d+1, got.DailyEnergy[d], want.DailyEnergy[d])
		}
	}
	if got.Breakdown != want.Breakdown {
		t.Errorf("%s: Breakdown %+v, reference %+v", label, got.Breakdown, want.Breakdown)
	}
	for _, q := range []struct {
		name      string
		got, want float64
	}{
		{"Seconds", got.QoS.Seconds(), want.QoS.Seconds()},
		{"ViolationSeconds", got.QoS.ViolationSeconds(), want.QoS.ViolationSeconds()},
		{"TotalRequests", got.QoS.TotalRequests(), want.QoS.TotalRequests()},
		{"LostRequests", got.QoS.LostRequests(), want.QoS.LostRequests()},
		{"Availability", got.QoS.Availability(), want.QoS.Availability()},
		{"ViolationRatio", got.QoS.ViolationRatio(), want.QoS.ViolationRatio()},
	} {
		if q.got != q.want {
			t.Errorf("%s: QoS.%s %v, reference %v", label, q.name, q.got, q.want)
		}
	}
	// Catch-all over every field, unexported compensation terms included.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Result differs from the reference:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestStaticFoldBitIdentical holds the per-day fold kernels of the three
// static scenarios bit-identical to the per-sample event loops they
// replaced.
func TestStaticFoldBitIdentical(t *testing.T) {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	big := planner.Big()
	for name, tr := range staticFoldTraces(t) {
		for _, sc := range []struct {
			scenario Scenario
			sizing   func(*trace.Trace, profile.Arch) func(int) int
		}{
			{ScenarioUpperBoundGlobal, globalSizing},
			{ScenarioUpperBoundPerDay, perDaySizing},
		} {
			label := name + "/" + string(sc.scenario)
			got, want := newResult(label, tr.Days()), newResult(label, tr.Days())
			if err := foldHomogeneous(tr, big, sc.sizing(tr, big), got); err != nil {
				t.Fatalf("%s: fold: %v", label, err)
			}
			if err := runHomogeneousEvent(tr, big, sc.sizing(tr, big), want); err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got.finalize()
			want.finalize()
			assertBitIdentical(t, label, got, want)
			if name == "perday-fallback" && sc.scenario == ScenarioUpperBoundPerDay && want.QoS.ViolationSeconds() == 0 {
				t.Errorf("%s: the fallback day never fell short; the input does not cover it", label)
			}
		}

		label := name + "/" + string(ScenarioLowerBound)
		solver, err := bml.NewExactSolver(planner.Candidates(), tr.Max(), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, want := newResult(label, tr.Days()), newResult(label, tr.Days())
		if err := foldLowerBound(tr, solver, got); err != nil {
			t.Fatalf("%s: fold: %v", label, err)
		}
		if err := runLowerBoundEvent(tr, solver, want); err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got.finalize()
		want.finalize()
		assertBitIdentical(t, label, got, want)
	}
}
