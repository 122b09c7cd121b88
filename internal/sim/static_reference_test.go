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
// next load change or day boundary after t, whichever comes first. It
// reads the trace one sample at a time, apart from trace.Trace.Runs.
func nextStaticEvent(tr *trace.Trace, t int) int {
	end := min((t/trace.SecondsPerDay+1)*trace.SecondsPerDay, tr.Len())
	u := t + 1
	for u < end && tr.At(u) == tr.At(t) {
		u++
	}
	return u
}

// fleetPowerN is the homogeneous fleet draw as one function, before the
// fold kernel split it into packLoad and packing.draw so that both
// UpperBounds share the packing. It is kept verbatim as the reference
// draw: n always-on nodes serving load packed onto as few as possible.
func fleetPowerN(n int, load, maxPerf, maxPower, idlePower float64) float64 {
	full := int(load / maxPerf)
	if full > n {
		full = n
	}
	rem := load - float64(full)*maxPerf
	p := float64(full) * maxPower
	used := full
	if rem > 1e-12 && used < n {
		if rem >= maxPerf {
			p += maxPower
		} else {
			p += float64(idlePower + (rem/maxPerf)*(maxPower-idlePower))
		}
		used++
	}
	p += float64(n-used) * idlePower
	return p
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
		{"ViolationSeconds", got.QoS.ViolationSeconds(), want.QoS.ViolationSeconds()},
		{"LostRequests", got.QoS.LostRequests(), want.QoS.LostRequests()},
		{"Availability", got.QoS.Availability(), want.QoS.Availability()},
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

// TestStaticFoldBitIdentical holds the one-walk fold kernel of the three
// static scenarios bit-identical to the per-sample event loops it
// replaced, with each scenario folded alone (the single Run functions) and
// with all three folded in one walk (RunAll), on every staticFoldTraces
// input and on a raw 92-day World Cup trace.
func TestStaticFoldBitIdentical(t *testing.T) {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	big := planner.Big()
	traces := staticFoldTraces(t)
	full, err := trace.GenerateWorldCup(trace.DefaultWorldCupConfig())
	if err != nil {
		t.Fatal(err)
	}
	traces["raw-92-days"] = full
	for name, tr := range traces {
		solver, err := bml.NewExactSolver(planner.Candidates(), tr.Max(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var want [staticSlots]*Result
		for k := range want {
			want[k] = newResult(staticNames[k], tr.Days())
		}
		if err := runHomogeneousEvent(tr, big, globalSizing(tr, big), want[slotGlobal]); err != nil {
			t.Fatalf("%s: global reference: %v", name, err)
		}
		if err := runHomogeneousEvent(tr, big, perDaySizing(tr.DailyPeaks(), big), want[slotPerDay]); err != nil {
			t.Fatalf("%s: per-day reference: %v", name, err)
		}
		if err := runLowerBoundEvent(tr, solver, want[slotLower]); err != nil {
			t.Fatalf("%s: lower-bound reference: %v", name, err)
		}
		for _, r := range want {
			r.finalize()
		}

		var alone [staticSlots]*Result
		alone[slotGlobal], err = RunUpperBoundGlobal(tr, big)
		if err != nil {
			t.Fatalf("%s: RunUpperBoundGlobal: %v", name, err)
		}
		alone[slotPerDay], err = RunUpperBoundPerDay(tr, big)
		if err != nil {
			t.Fatalf("%s: RunUpperBoundPerDay: %v", name, err)
		}
		alone[slotLower], err = RunLowerBound(tr, planner.Candidates())
		if err != nil {
			t.Fatalf("%s: RunLowerBound: %v", name, err)
		}
		set, err := RunAll(tr, planner, BMLConfig{})
		if err != nil {
			t.Fatalf("%s: RunAll: %v", name, err)
		}
		all := [staticSlots]*Result{set.UpperBoundGlobal, set.UpperBoundPerDay, set.LowerBound}
		for k := range want {
			assertBitIdentical(t, name+"/"+staticNames[k]+"/alone", alone[k], want[k])
			assertBitIdentical(t, name+"/"+staticNames[k]+"/RunAll", all[k], want[k])
		}

		// The busier partial day must take UpperBound PerDay, and only it,
		// off the shared QoS chain.
		if name == "perday-fallback" {
			if v := all[slotPerDay].QoS.ViolationSeconds(); v == 0 {
				t.Errorf("%s: the fallback day never fell short; the input does not cover it", name)
			}
			if v := all[slotGlobal].QoS.ViolationSeconds(); v != 0 {
				t.Errorf("%s: UpperBound Global has %v violation seconds, want 0", name, v)
			}
		}
	}
}
