package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

// fastArchs is a Big/Little pair with short transitions so full-day
// simulations stay fast while still exercising reconfiguration.
func fastArchs() []profile.Arch {
	return []profile.Arch{
		{
			Name: "big", MaxPerf: 100, IdlePower: 20, MaxPower: 80,
			OnDuration: 10 * time.Second, OnEnergy: 500,
			OffDuration: 2 * time.Second, OffEnergy: 50,
		},
		{
			Name: "little", MaxPerf: 12, IdlePower: 2, MaxPower: 12,
			OnDuration: 3 * time.Second, OnEnergy: 15,
			OffDuration: 1 * time.Second, OffEnergy: 2,
		},
	}
}

func fastPlanner(t *testing.T) *bml.Planner {
	t.Helper()
	p, err := bml.NewPlanner(fastArchs(), bml.WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dayTrace builds an n-day trace with a sinusoidal diurnal shape peaking at
// peak requests/s.
func dayTrace(t *testing.T, days int, peak float64) *trace.Trace {
	t.Helper()
	vals := make([]float64, days*trace.SecondsPerDay)
	for i := range vals {
		tod := float64(i%trace.SecondsPerDay) / trace.SecondsPerDay
		vals[i] = peak * (0.5 - 0.5*math.Cos(2*math.Pi*tod)) // 0 at midnight, peak at noon
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func shortTrace(t *testing.T, vals []float64) *trace.Trace {
	t.Helper()
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunLowerBoundConstantLoad(t *testing.T) {
	tr := shortTrace(t, mkConst(3600, 50))
	res, err := RunLowerBound(tr, fastPlanner(t).Candidates())
	if err != nil {
		t.Fatal(err)
	}
	// Ideal combination at 50: big(50) = 20+0.3*... big(50)=20+0.6*50/... —
	// compare against the exact solver directly to avoid re-deriving.
	solver, err := bml.NewExactSolver(fastPlanner(t).Candidates(), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(solver.PowerAt(50)) * 3600
	if math.Abs(float64(res.TotalEnergy)-want) > 1e-6 {
		t.Errorf("lower bound energy = %v, want %v", res.TotalEnergy, want)
	}
	if res.QoS.Availability() != 1 {
		t.Error("lower bound lost requests")
	}
	if res.Decisions != 0 {
		t.Error("lower bound reports scheduler decisions")
	}
}

func mkConst(n int, v float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

func TestRunUpperBoundGlobalSizing(t *testing.T) {
	// Peak 250 needs ceil(250/100) = 3 big machines.
	vals := mkConst(100, 10)
	vals[50] = 250
	tr := shortTrace(t, vals)
	res, err := RunUpperBoundGlobal(tr, fastArchs()[0])
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 (load 10): 1 node at 10 + 2 idle = (20+0.6*10) + 2*20 = 66 W.
	first := float64(res.TotalEnergy) // cross-check via manual reconstruction below
	_ = first
	var manual float64
	big := fastArchs()[0]
	for i := 0; i < tr.Len(); i++ {
		manual += fleetPowerN(3, tr.At(i), big.MaxPerf, float64(big.MaxPower), float64(big.IdlePower))
	}
	if math.Abs(float64(res.TotalEnergy)-manual) > 1e-6 {
		t.Errorf("UB global energy = %v, want %v", res.TotalEnergy, manual)
	}
	if res.QoS.Availability() != 1 {
		t.Error("over-provisioned data center lost requests")
	}
}

func TestRunUpperBoundGlobalZeroTraceKeepsOneMachine(t *testing.T) {
	tr := shortTrace(t, mkConst(10, 0))
	res, err := RunUpperBoundGlobal(tr, fastArchs()[0])
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * 20.0 // one idle machine
	if math.Abs(float64(res.TotalEnergy)-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", res.TotalEnergy, want)
	}
}

func TestRunUpperBoundPerDaySizing(t *testing.T) {
	// Day 1 peaks at 90 (1 machine), day 2 at 150 (2 machines).
	vals := make([]float64, 2*trace.SecondsPerDay)
	vals[100] = 90
	vals[trace.SecondsPerDay+100] = 150
	tr := shortTrace(t, vals)
	res, err := RunUpperBoundPerDay(tr, fastArchs()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Idle-dominated: day 1 ≈ 86400×20 J + peak-second extra, day 2 ≈
	// 86400×40 J. Verify the per-day ratio reflects sizing.
	d1, d2 := float64(res.DailyEnergy[0]), float64(res.DailyEnergy[1])
	if d2 < 1.8*d1 {
		t.Errorf("per-day sizing not reflected: day1=%v day2=%v", d1, d2)
	}
	if res.QoS.Availability() != 1 {
		t.Error("per-day bound lost requests")
	}
}

func TestRunBMLConstantLoadSteadyEnergy(t *testing.T) {
	tr := shortTrace(t, mkConst(3600, 50))
	res, err := RunBML(tr, fastPlanner(t), BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: one big machine at 50 = 50 W. Total ≈ boot + 50×3600.
	steady := float64(fastArchs()[0].PowerAt(50))
	lower := steady * 3590
	upper := steady*3600 + 1000 // boot energy slack
	got := float64(res.TotalEnergy)
	if got < lower || got > upper {
		t.Errorf("BML energy = %v, want within [%v, %v]", got, lower, upper)
	}
	if res.Decisions != 1 {
		t.Errorf("decisions = %d, want 1 for constant load", res.Decisions)
	}
}

func TestRunBMLBetweenBounds(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	bmlRes, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lower, err := RunLowerBound(tr, planner.Candidates())
	if err != nil {
		t.Fatal(err)
	}
	upper, err := RunUpperBoundGlobal(tr, planner.Big())
	if err != nil {
		t.Fatal(err)
	}
	lb, bm, ub := float64(lower.TotalEnergy), float64(bmlRes.TotalEnergy), float64(upper.TotalEnergy)
	if !(lb <= bm) {
		t.Errorf("BML %v below theoretical lower bound %v", bm, lb)
	}
	if !(bm < ub) {
		t.Errorf("BML %v not below the over-provisioned bound %v", bm, ub)
	}
	// Energy proportionality: BML should be much closer to the lower bound
	// than to the static upper bound on a diurnal trace.
	if (bm-lb)/lb > 0.5 {
		t.Errorf("BML overhead vs lower bound = %.1f%%, want < 50%%", (bm-lb)/lb*100)
	}
}

func TestRunBMLQoSMostlyServed(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	res, err := RunBML(tr, fastPlanner(t), BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if av := res.QoS.Availability(); av < 0.995 {
		t.Errorf("availability = %v, want ≥ 99.5%%", av)
	}
}

func TestRunBMLDailyEnergySumsToTotal(t *testing.T) {
	tr := dayTrace(t, 2, 200)
	res, err := RunBML(tr, fastPlanner(t), BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DailyEnergy) != 2 {
		t.Fatalf("daily buckets = %d", len(res.DailyEnergy))
	}
	var sum float64
	for _, e := range res.DailyEnergy {
		sum += float64(e)
	}
	if math.Abs(sum-float64(res.TotalEnergy)) > 1e-6 {
		t.Errorf("daily sum %v != total %v", sum, res.TotalEnergy)
	}
}

func TestRunBMLWithOracleAblation(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	withLookahead, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	withOracle, err := RunBML(tr, planner, BMLConfig{Predictor: predict.NewOracle(tr)})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle re-dimensions for the instantaneous load and therefore
	// consumes no more computation energy than the conservative
	// window-max — but risks QoS on rises. Just check both complete and
	// the oracle is not wildly worse.
	lo, or := float64(withLookahead.TotalEnergy), float64(withOracle.TotalEnergy)
	if or > lo*1.5 {
		t.Errorf("oracle ablation energy %v vastly above lookahead %v", or, lo)
	}
}

func TestRunBMLHeadroom(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	plain, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := RunBML(tr, planner, BMLConfig{Headroom: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if float64(padded.TotalEnergy) <= float64(plain.TotalEnergy) {
		t.Errorf("headroom did not increase energy: %v vs %v", padded.TotalEnergy, plain.TotalEnergy)
	}
	if padded.QoS.Availability() < plain.QoS.Availability()-1e-9 {
		t.Errorf("headroom reduced availability: %v vs %v",
			padded.QoS.Availability(), plain.QoS.Availability())
	}
}

func TestRunBMLValidation(t *testing.T) {
	tr := shortTrace(t, mkConst(10, 1))
	if _, err := RunBML(nil, fastPlanner(t), BMLConfig{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := RunBML(tr, nil, BMLConfig{}); err == nil {
		t.Error("nil planner accepted")
	}
	if _, err := RunLowerBound(nil, fastArchs()); err == nil {
		t.Error("nil trace accepted by lower bound")
	}
	if _, err := RunUpperBoundGlobal(nil, fastArchs()[0]); err == nil {
		t.Error("nil trace accepted by UB global")
	}
	if _, err := RunUpperBoundPerDay(nil, fastArchs()[0]); err == nil {
		t.Error("nil trace accepted by UB per-day")
	}
	bad := fastArchs()[0]
	bad.MaxPerf = -1
	if _, err := RunUpperBoundGlobal(tr, bad); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestFleetPowerN(t *testing.T) {
	arch := fastArchs()[0] // idle 20, max 80, perf 100
	cases := []struct {
		n    int
		load float64
		want float64
	}{
		{3, 0, 60},             // all idle
		{3, 100, 80 + 40},      // one full, two idle
		{3, 150, 80 + 50 + 20}, // one full, one half (20+30), one idle
		{3, 300, 240},          // all full
		{3, 500, 240},          // overload clamps
		{0, 50, 0},
	}
	for _, c := range cases {
		if got := packLoad(c.load, arch.MaxPerf, float64(arch.MaxPower), float64(arch.IdlePower)).draw(c.n, float64(arch.MaxPower), float64(arch.IdlePower)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("draw of %d nodes at load %v = %v, want %v", c.n, c.load, got, c.want)
		}
	}
	// Bit for bit the one-function draw it was split from, overloads,
	// exact multiples and the paper's Big class included.
	for _, a := range []profile.Arch{arch, profile.PaperMachines()[0]} {
		maxPower, idlePower := float64(a.MaxPower), float64(a.IdlePower)
		for n := 0; n <= 5; n++ {
			for _, load := range []float64{0, 5e-324, 1e-12, 2e-12, a.MaxPerf, 2 * a.MaxPerf, 2*a.MaxPerf + 1e-9, 0.3 * a.MaxPerf, 3.7 * a.MaxPerf, 9 * a.MaxPerf, 1e300} {
				got := packLoad(load, a.MaxPerf, maxPower, idlePower).draw(n, maxPower, idlePower)
				want := fleetPowerN(n, load, a.MaxPerf, maxPower, idlePower)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: draw of %d nodes at load %v = %v, reference %v", a.Name, n, load, got, want)
				}
			}
		}
	}
}

func TestScenariosOnPaperMachinesMiniTrace(t *testing.T) {
	// A 2-hour burst shaped like a miniature day, on the real Table I
	// machines, checking ordering of all four scenarios.
	if testing.Short() {
		t.Skip("mini integration run")
	}
	n := 7200
	vals := make([]float64, n)
	for i := range vals {
		tod := float64(i) / float64(n)
		vals[i] = 4500 * (0.5 - 0.5*math.Cos(2*math.Pi*tod))
	}
	tr := shortTrace(t, vals)
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	bmlRes, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lower, err := RunLowerBound(tr, planner.Candidates())
	if err != nil {
		t.Fatal(err)
	}
	ubG, err := RunUpperBoundGlobal(tr, planner.Big())
	if err != nil {
		t.Fatal(err)
	}
	lb, bm, ub := float64(lower.TotalEnergy), float64(bmlRes.TotalEnergy), float64(ubG.TotalEnergy)
	if !(lb <= bm && bm < ub) {
		t.Errorf("ordering violated: LB=%v BML=%v UBG=%v", lb, bm, ub)
	}
}

// TestRunBMLDecisionsKeepsWholeLog pins that the decision log of a long
// run is complete — one entry per counted decision, oldest first — rather
// than only the tail the scheduler's default bounded log retains.
func TestRunBMLDecisionsKeepsWholeLog(t *testing.T) {
	// Load flips between a Little-only and a Big-sized level every 20 s;
	// the oracle predictor makes every flip a decision.
	vals := make([]float64, 5000*20)
	for i := range vals {
		vals[i] = 5
		if (i/20)%2 == 1 {
			vals[i] = 150
		}
	}
	tr := trace.MustNew(vals)
	res, log, err := RunBMLDecisions(tr, fastPlanner(t), BMLConfig{Predictor: predict.NewOracle(tr)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions <= 4096 {
		t.Fatalf("degenerate case: only %d decisions", res.Decisions)
	}
	if len(log) != res.Decisions {
		t.Fatalf("decision log has %d entries, want %d", len(log), res.Decisions)
	}
	if log[0].Time != 0 {
		t.Errorf("first logged decision at t=%d, want 0", log[0].Time)
	}
}
