package sched

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

// fastArchs is a Big/Little pair with short transitions so scheduler tests
// settle quickly. Big's threshold against Little fleets lands at 60:
// big(60) = 20+0.6*60 = 56 <= littleFleet(60) = 5 full = 60... (the exact
// value is asserted in the planner test below).
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

func newRig(t *testing.T, tr *trace.Trace, headroom float64) (*Scheduler, *cluster.Cluster) {
	t.Helper()
	planner, err := bml.NewPlanner(fastArchs(), bml.WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	window, err := Window(planner.Candidates(), DefaultWindowFactor)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict.NewLookaheadMax(tr, window)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(planner.Candidates())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New(Config{
		Table:     planner.Lookup(tr.Max() * math.Max(headroom, 1)),
		Predictor: pred,
		Cluster:   cl,
		Headroom:  headroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc, cl
}

// settledCounts returns the cluster's On machines per architecture in
// Big→Little order: with no transition in flight, the active (On+Booting)
// counts are the On counts.
func settledCounts(t *testing.T, cl *cluster.Cluster) []int {
	t.Helper()
	if cl.Reconfiguring() {
		t.Fatal("cluster still reconfiguring")
	}
	return cl.ActiveCounts(nil)
}

// onCounts keys the settled cluster's On counts by architecture name,
// omitting zeros.
func onCounts(t *testing.T, cl *cluster.Cluster) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for i, n := range settledCounts(t, cl) {
		if n > 0 {
			out[cl.Architectures()[i].Name] = n
		}
	}
	return out
}

// capacity returns the rate the settled cluster's On machines sustain.
func capacity(t *testing.T, cl *cluster.Cluster) float64 {
	t.Helper()
	var cap float64
	for i, n := range settledCounts(t, cl) {
		cap += float64(n) * cl.Architectures()[i].MaxPerf
	}
	return cap
}

func constTrace(t *testing.T, v float64, n int) *trace.Trace {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWindowMatchesPaper(t *testing.T) {
	// 2 × the longest On duration: Paravance's 189 s → 378 s.
	w, err := Window(profile.PaperMachines(), DefaultWindowFactor)
	if err != nil {
		t.Fatal(err)
	}
	if w != 378 {
		t.Errorf("window = %d, want the paper's 378 s", w)
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := Window(nil, 2); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := Window(profile.PaperMachines(), 0); err == nil {
		t.Error("zero factor accepted")
	}
	if _, err := Window(profile.PaperMachines(), math.NaN()); err == nil {
		t.Error("NaN factor accepted")
	}
}

// TestWindowOverflow pins that a factor whose window does not fit an int
// fails instead of wrapping to a negative value and clamping to one
// second, and that a huge window that fits is returned exactly.
func TestWindowOverflow(t *testing.T) {
	for _, f := range []float64{5e16, 1e300, math.MaxFloat64} {
		if w, err := Window(profile.PaperMachines(), f); err == nil {
			t.Errorf("factor %g: window %d accepted", f, w)
		}
	}
	w, err := Window(profile.PaperMachines(), 1e10)
	if err != nil || w != 1_890_000_000_000 {
		t.Errorf("factor 1e10: window %d, %v; want 189e10 s", w, err)
	}
}

func TestWindowMinimumOneSecond(t *testing.T) {
	a := fastArchs()
	for i := range a {
		a[i].OnDuration = 0
	}
	w, err := Window(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Errorf("window = %d, want floor of 1", w)
	}
}

func TestNewValidation(t *testing.T) {
	tr := constTrace(t, 1, 10)
	sc, cl := newRig(t, tr, 1)
	_ = sc
	pred := predict.NewOracle(tr)
	planner, _ := bml.NewPlanner(fastArchs(), bml.WithPreFilteredCandidates())
	table := planner.Lookup(10)
	cases := []Config{
		{Table: nil, Predictor: pred, Cluster: cl},
		{Table: table, Predictor: nil, Cluster: cl},
		{Table: table, Predictor: pred, Cluster: nil},
		{Table: table, Predictor: pred, Cluster: cl, Headroom: 0.5},
		{Table: table, Predictor: pred, Cluster: cl, Headroom: math.NaN()},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFirstDecisionBootsCombination(t *testing.T) {
	tr := constTrace(t, 50, 100)
	sc, cl := newRig(t, tr, 1)
	rep, err := sc.Step(0, tr.At(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decided {
		t.Fatal("no decision on first step with non-zero load")
	}
	if sc.Decisions() != 1 {
		t.Errorf("Decisions = %d", sc.Decisions())
	}
	if slices.Max(cl.ActiveCounts(nil)) == 0 {
		t.Error("nothing booting after decision")
	}
}

func TestNoDecisionWhileReconfiguring(t *testing.T) {
	tr := constTrace(t, 50, 100)
	sc, _ := newRig(t, tr, 1)
	if _, err := sc.Step(0, 50, 1); err != nil {
		t.Fatal(err)
	}
	decisionsAfterFirst := sc.Decisions()
	// Boot takes 10 s; steps 1..9 must not decide again even though the
	// prediction stays the same.
	for tt := 1; tt < 10; tt++ {
		rep, err := sc.Step(tt, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Decided {
			t.Fatalf("decision at t=%d during reconfiguration", tt)
		}
		if tt < 9 && !rep.Reconfiguring {
			t.Fatalf("t=%d: not reconfiguring mid-boot", tt)
		}
	}
	if sc.Decisions() != decisionsAfterFirst {
		t.Error("decisions taken during the locked window")
	}
}

func TestStableLoadReachesSteadyState(t *testing.T) {
	tr := constTrace(t, 50, 200)
	sc, cl := newRig(t, tr, 1)
	var servedAt100 float64
	for tt := 0; tt < 200; tt++ {
		rep, err := sc.Step(tt, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tt == 199 {
			servedAt100 = rep.Served
		}
	}
	// Steady state: exactly one decision ever, demand fully served.
	if sc.Decisions() != 1 {
		t.Errorf("Decisions = %d, want 1 for constant load", sc.Decisions())
	}
	if servedAt100 != 50 {
		t.Errorf("steady-state served = %v, want 50", servedAt100)
	}
	if cl.Reconfiguring() {
		t.Error("still reconfiguring in steady state")
	}
}

func TestScaleUpOnPredictedRise(t *testing.T) {
	// Load 10 for 100 s, then 100. Window is 20 s (2×10), so the rise is
	// visible at t=80 and the scheduler must boot the big machine before
	// the rise lands.
	vals := make([]float64, 200)
	for i := range vals {
		if i < 100 {
			vals[i] = 10
		} else {
			vals[i] = 100
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	sc, cl := newRig(t, tr, 1)
	lost := 0.0
	for tt := 0; tt < 200; tt++ {
		rep, err := sc.Step(tt, tr.At(tt), 1)
		if err != nil {
			t.Fatal(err)
		}
		// Skip the cold start: the very first machines are still booting
		// while load is already offered (also true of the paper's
		// simulator). After warm-up the look-ahead must prevent losses.
		if tt >= 10 {
			lost += tr.At(tt) - rep.Served
		}
	}
	if lost > 0 {
		t.Errorf("lost %v request-seconds despite 2×boot look-ahead", lost)
	}
	counts := onCounts(t, cl)
	if counts["big"] != 1 {
		t.Errorf("final counts = %v, want one big machine", counts)
	}
}

func TestScaleDownSwitchesOff(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		if i < 100 {
			vals[i] = 100
		} else {
			vals[i] = 5
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	sc, cl := newRig(t, tr, 1)
	for tt := 0; tt < 300; tt++ {
		if _, err := sc.Step(tt, tr.At(tt), 1); err != nil {
			t.Fatal(err)
		}
	}
	counts := onCounts(t, cl)
	if counts["big"] != 0 {
		t.Errorf("big machine still on at low load: %v", counts)
	}
	if counts["little"] != 1 {
		t.Errorf("counts = %v, want one little serving 5", counts)
	}
	if sc.SwitchOffs() == 0 {
		t.Error("no switch-offs recorded")
	}
}

func TestZeroLoadShutsEverythingDown(t *testing.T) {
	vals := make([]float64, 200)
	for i := 0; i < 50; i++ {
		vals[i] = 50
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	sc, cl := newRig(t, tr, 1)
	for tt := 0; tt < 200; tt++ {
		if _, err := sc.Step(tt, tr.At(tt), 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(onCounts(t, cl)) != 0 {
		t.Errorf("machines still on with zero demand: %v", onCounts(t, cl))
	}
}

func TestHeadroomProvisionsMore(t *testing.T) {
	tr := constTrace(t, 95, 100)
	scPlain, clPlain := newRig(t, tr, 1)
	scHead, clHead := newRig(t, tr, 1.3)
	for tt := 0; tt < 100; tt++ {
		if _, err := scPlain.Step(tt, tr.At(tt), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := scHead.Step(tt, tr.At(tt), 1); err != nil {
			t.Fatal(err)
		}
	}
	plainCap, headCap := capacity(t, clPlain), capacity(t, clHead)
	if headCap <= plainCap {
		t.Errorf("headroom capacity %v not above plain %v", headCap, plainCap)
	}
}

func TestStepValidation(t *testing.T) {
	tr := constTrace(t, 1, 10)
	sc, _ := newRig(t, tr, 1)
	if _, err := sc.Step(0, -1, 1); err == nil {
		t.Error("negative demand accepted")
	}
	if _, err := sc.Step(0, math.NaN(), 1); err == nil {
		t.Error("NaN demand accepted")
	}
}

func TestLastTarget(t *testing.T) {
	tr := constTrace(t, 50, 20)
	sc, _ := newRig(t, tr, 1)
	if sc.LastTarget() != nil {
		t.Error("LastTarget non-nil before first decision")
	}
	sc.Step(0, 50, 1)
	lt := sc.LastTarget()
	if len(lt) == 0 {
		t.Fatal("LastTarget empty after decision")
	}
	lt["big"] = 99
	if sc.LastTarget()["big"] == 99 {
		t.Error("LastTarget exposes internal map")
	}
}

func TestEnergyIncludesTransitions(t *testing.T) {
	tr := constTrace(t, 100, 40)
	sc, _ := newRig(t, tr, 1)
	var total float64
	for tt := 0; tt < 40; tt++ {
		rep, err := sc.Step(tt, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(rep.Energy)
	}
	// One big boot (500 J) + 30 s at full load (80 W) = 500 + 2400.
	want := 500.0 + 30*80
	if math.Abs(total-want) > 1e-6 {
		t.Errorf("energy = %v, want %v (boot + serving)", total, want)
	}
}
