package wc98

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// miniTrace generates a small (3-day) World Cup–shaped trace for fast
// evaluation tests.
func miniTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.WorldCupConfig{Days: 3, PeakRate: 4800, Seed: 5, Noise: 0.04}
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunProducesAllScenarios(t *testing.T) {
	tr := miniTrace(t)
	ev, err := Run(tr, profile.PaperMachines(), Config{FirstDay: 1, LastDay: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"UpperBound Global", "UpperBound PerDay", "Big-Medium-Little", "LowerBound Theoretical"} {
		if ev.Results[name] == nil {
			t.Errorf("missing scenario %q", name)
		}
	}
	if len(ev.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(ev.Rows))
	}
	if ev.Summary.Days != 3 {
		t.Errorf("summary days = %d", ev.Summary.Days)
	}
}

func TestRowOrderingInvariants(t *testing.T) {
	tr := miniTrace(t)
	ev, err := Run(tr, profile.PaperMachines(), Config{FirstDay: 1, LastDay: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ev.Rows {
		if !(r.LowerBound <= r.BML) {
			t.Errorf("day %d: BML %v below lower bound %v", r.Day, r.BML, r.LowerBound)
		}
		if !(r.BML < r.UBGlobal) {
			t.Errorf("day %d: BML %v not below UB Global %v", r.Day, r.BML, r.UBGlobal)
		}
		if !(r.UBPerDay <= r.UBGlobal+power.Joules(1)) {
			t.Errorf("day %d: per-day %v above global %v", r.Day, r.UBPerDay, r.UBGlobal)
		}
		if r.OverheadPct() < 0 {
			t.Errorf("day %d: negative overhead %v", r.Day, r.OverheadPct())
		}
	}
}

func TestSummaryStatistics(t *testing.T) {
	tr := miniTrace(t)
	ev, err := Run(tr, profile.PaperMachines(), Config{FirstDay: 1, LastDay: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := ev.Summary
	if s.MinOverheadPct > s.MeanOverheadPct || s.MeanOverheadPct > s.MaxOverheadPct {
		t.Errorf("overhead stats inconsistent: min=%v mean=%v max=%v",
			s.MinOverheadPct, s.MeanOverheadPct, s.MaxOverheadPct)
	}
	if s.SavingsVsGlobal <= 0 || s.SavingsVsGlobal >= 1 {
		t.Errorf("savings vs global = %v, want in (0,1)", s.SavingsVsGlobal)
	}
	bmlRes := ev.Results["Big-Medium-Little"]
	if a := bmlRes.QoS.Availability(); a < 0.99 {
		t.Errorf("availability = %v", a)
	}
	if bmlRes.Decisions <= 0 {
		t.Error("no scheduler decisions recorded")
	}
	var mean float64
	for _, r := range ev.Rows {
		mean += r.OverheadPct()
	}
	mean /= float64(len(ev.Rows))
	if math.Abs(mean-s.MeanOverheadPct) > 1e-9 {
		t.Errorf("mean overhead %v != recomputed %v", s.MeanOverheadPct, mean)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestDayRangeDefaultsAndClamping(t *testing.T) {
	tr := miniTrace(t)
	// Defaults are 6..92 but the trace has 3 days: FirstDay 6 > LastDay 3
	// must error.
	if _, err := Run(tr, profile.PaperMachines(), Config{}); err == nil {
		t.Error("out-of-range default window accepted on 3-day trace")
	}
	ev, err := Run(tr, profile.PaperMachines(), Config{FirstDay: 2, LastDay: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Rows) != 2 || ev.Rows[0].Day != 2 {
		t.Errorf("clamped rows = %+v", ev.Rows)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, profile.PaperMachines(), Config{}); err == nil {
		t.Error("nil trace accepted")
	}
	tr := miniTrace(t)
	if _, err := Run(tr, nil, Config{FirstDay: 1, LastDay: 2}); err == nil {
		t.Error("empty machine catalog accepted")
	}
	if _, err := Run(tr, profile.PaperMachines(), Config{FirstDay: 3, LastDay: 1}); err == nil {
		t.Error("inverted day range accepted")
	}
}

func TestBMLConfigForwarded(t *testing.T) {
	tr := miniTrace(t)
	plain, err := Run(tr, profile.PaperMachines(), Config{FirstDay: 1, LastDay: 3})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := Run(tr, profile.PaperMachines(), Config{
		FirstDay: 1, LastDay: 3,
		BML: sim.BMLConfig{Headroom: 1.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if padded.Summary.TotalBML <= plain.Summary.TotalBML {
		t.Errorf("headroom config not forwarded: %v vs %v",
			padded.Summary.TotalBML, plain.Summary.TotalBML)
	}
}

func TestOverheadPctZeroLowerBound(t *testing.T) {
	r := Row{BML: 100, LowerBound: 0}
	if r.OverheadPct() != 0 {
		t.Errorf("zero lower bound overhead = %v, want 0 sentinel", r.OverheadPct())
	}
}
