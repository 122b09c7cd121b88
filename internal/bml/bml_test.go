package bml

import (
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/profile"
)

// paperCandidates returns the three classes the paper's Steps 2–3 retain:
// Raspberry (Little), Chromebook (Medium), Paravance (Big).
func paperCandidates(t *testing.T) []profile.Arch {
	t.Helper()
	cands, _, err := SelectCandidates(profile.PaperMachines(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func TestSortByPerf(t *testing.T) {
	sorted := SortByPerf(profile.PaperMachines())
	want := []string{profile.Paravance, profile.Taurus, profile.Graphene, profile.Chromebook, profile.Raspberry}
	for i, w := range want {
		if sorted[i].Name != w {
			t.Errorf("position %d = %q, want %q", i, sorted[i].Name, w)
		}
	}
}

func TestStep2RemovesTaurus(t *testing.T) {
	kept, removed, err := FilterDominated(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range kept {
		names[a.Name] = true
	}
	if names[profile.Taurus] {
		t.Error("Taurus survived Step 2; the paper removes it (223.7 W > Paravance's 200.5 W at lower performance)")
	}
	for _, n := range []string{profile.Paravance, profile.Graphene, profile.Chromebook, profile.Raspberry} {
		if !names[n] {
			t.Errorf("%s unexpectedly removed by Step 2", n)
		}
	}
	if len(removed) != 1 || removed[0].Arch.Name != profile.Taurus || removed[0].Step != 2 {
		t.Errorf("removals = %v, want exactly Taurus at step 2", removed)
	}
}

func TestStep2RemovesIllustrativeD(t *testing.T) {
	kept, removed, err := FilterDominated(profile.Illustrative())
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("kept %d, want 3 (A, B, C)", len(kept))
	}
	for i, w := range []string{"A", "B", "C"} {
		if kept[i].Name != w {
			t.Errorf("kept[%d] = %q, want %q", i, kept[i].Name, w)
		}
	}
	if len(removed) != 1 || removed[0].Arch.Name != "D" {
		t.Errorf("removed = %v, want D", removed)
	}
}

func TestStep2EqualPowerAtLowerPerfIsDominated(t *testing.T) {
	big := profile.Arch{Name: "big", MaxPerf: 100, IdlePower: 10, MaxPower: 50}
	sameP := profile.Arch{Name: "same", MaxPerf: 50, IdlePower: 5, MaxPower: 50}
	kept, removed, err := FilterDominated([]profile.Arch{big, sameP})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0].Name != "big" {
		t.Errorf("kept = %v; equal max power at lower perf must be dominated", kept)
	}
	if len(removed) != 1 {
		t.Errorf("removed = %v", removed)
	}
}

func TestStep2EmptyInput(t *testing.T) {
	if _, _, err := FilterDominated(nil); err != ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestStep2InvalidProfileRejected(t *testing.T) {
	bad := profile.Arch{Name: "bad", MaxPerf: -1, IdlePower: 1, MaxPower: 2}
	if _, _, err := FilterDominated([]profile.Arch{bad}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestStep3RemovesGraphene(t *testing.T) {
	kept, _, err := FilterDominated(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	final, removed, err := PruneNonCrossing(kept, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{profile.Paravance, profile.Chromebook, profile.Raspberry}
	if len(final) != len(want) {
		t.Fatalf("final candidates %v, want %v", final, want)
	}
	for i, w := range want {
		if final[i].Name != w {
			t.Errorf("final[%d] = %q, want %q", i, final[i].Name, w)
		}
	}
	found := false
	for _, r := range removed {
		if r.Arch.Name == profile.Graphene && r.Step == 3 {
			found = true
		}
	}
	if !found {
		t.Error("Graphene not removed at Step 3; the paper discards it (profile never crosses)")
	}
}

func TestStep3KeepsSingleCandidate(t *testing.T) {
	only := []profile.Arch{{Name: "solo", MaxPerf: 100, IdlePower: 10, MaxPower: 50}}
	kept, removed, err := PruneNonCrossing(only, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || len(removed) != 0 {
		t.Errorf("single candidate mishandled: kept=%v removed=%v", kept, removed)
	}
}

func TestStep3RejectsInvalidStep(t *testing.T) {
	if _, _, err := PruneNonCrossing(paperCandidates(t), 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, _, err := PruneNonCrossing(paperCandidates(t), math.NaN()); err == nil {
		t.Error("NaN step accepted")
	}
}

func TestSelectCandidatesPipeline(t *testing.T) {
	cands, removed, err := SelectCandidates(profile.PaperMachines(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates = %v, want 3 classes", cands)
	}
	if len(removed) != 2 {
		t.Errorf("removals = %v, want Taurus and Graphene", removed)
	}
}

func TestRoleNames(t *testing.T) {
	cands := paperCandidates(t)
	roles := RoleNames(cands)
	if roles[profile.Paravance] != "Big" {
		t.Errorf("Paravance role = %q, want Big", roles[profile.Paravance])
	}
	if roles[profile.Chromebook] != "Medium" {
		t.Errorf("Chromebook role = %q, want Medium", roles[profile.Chromebook])
	}
	if roles[profile.Raspberry] != "Little" {
		t.Errorf("Raspberry role = %q, want Little", roles[profile.Raspberry])
	}
}

func TestRoleNamesManyClasses(t *testing.T) {
	archs := []profile.Arch{
		{Name: "w", MaxPerf: 400, IdlePower: 1, MaxPower: 40},
		{Name: "x", MaxPerf: 300, IdlePower: 1, MaxPower: 30},
		{Name: "y", MaxPerf: 200, IdlePower: 1, MaxPower: 20},
		{Name: "z", MaxPerf: 100, IdlePower: 1, MaxPower: 10},
	}
	roles := RoleNames(archs)
	if roles["w"] != "Big" || roles["z"] != "Little" {
		t.Errorf("roles = %v", roles)
	}
	if roles["x"] != "Medium1" || roles["y"] != "Medium2" {
		t.Errorf("intermediate roles = %v, want indexed Medium labels", roles)
	}
}

// TestPaperThresholds pins §V-B: "Their minimum utilization thresholds are
// respectively 1, 10 and 529 requests per second."
func TestPaperThresholds(t *testing.T) {
	cands := paperCandidates(t)
	ths, err := ComputeThresholds(cands, Combinations, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		profile.Paravance:  529,
		profile.Chromebook: 10,
		profile.Raspberry:  1,
	}
	for _, th := range ths {
		if w, ok := want[th.Arch.Name]; !ok || th.Rate != w {
			t.Errorf("threshold %s = %v, want %v", th.Arch.Name, th.Rate, want[th.Arch.Name])
		}
		if !th.Crossed {
			t.Errorf("threshold %s reported as defaulted, want a real crossing", th.Arch.Name)
		}
	}
}

func TestPaperThresholdsHomogeneousMode(t *testing.T) {
	// For the paper's machines the Step 3 (homogeneous) thresholds happen
	// to coincide with Step 4: the Chromebook crossing at 10 only involves
	// Raspberry fleets, and the Paravance crossing at 529 is governed by
	// full Chromebooks.
	ths, err := ComputeThresholds(paperCandidates(t), Homogeneous, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ThresholdMap(ths)
	if m[profile.Chromebook] != 10 {
		t.Errorf("homogeneous Chromebook threshold = %v, want 10", m[profile.Chromebook])
	}
	if m[profile.Paravance] != 529 {
		t.Errorf("homogeneous Paravance threshold = %v, want 529", m[profile.Paravance])
	}
}

// TestIllustrativeThresholds checks the Figure 2 narrative: Medium's
// threshold around 150; Step 3 gives Big a threshold at Medium's max perf
// (the non-optimal jump), which Step 4 then increases.
func TestIllustrativeThresholds(t *testing.T) {
	cands, _, err := SelectCandidates(profile.Illustrative(), 1)
	if err != nil {
		t.Fatal(err)
	}
	step3, err := ComputeThresholds(cands, Homogeneous, 1)
	if err != nil {
		t.Fatal(err)
	}
	step4, err := ComputeThresholds(cands, Combinations, 1)
	if err != nil {
		t.Fatal(err)
	}
	m3, m4 := ThresholdMap(step3), ThresholdMap(step4)

	if m3["B"] != 150 || m4["B"] != 150 {
		t.Errorf("Medium threshold = %v (step3) / %v (step4), want 150", m3["B"], m4["B"])
	}
	if m3["C"] != 1 || m4["C"] != 1 {
		t.Errorf("Little threshold = %v/%v, want 1", m3["C"], m4["C"])
	}
	// Step 3: Big crosses right at/above Medium's max perf (300).
	if m3["A"] < 300 || m3["A"] > 310 {
		t.Errorf("step 3 Big threshold = %v, want ≈300 (Medium's max perf)", m3["A"])
	}
	// Step 4: threshold has "consequently increased".
	if m4["A"] <= m3["A"] {
		t.Errorf("step 4 Big threshold %v not greater than step 3's %v", m4["A"], m3["A"])
	}
	if m4["A"] < 380 || m4["A"] > 650 {
		t.Errorf("step 4 Big threshold = %v, want substantially above 300", m4["A"])
	}
}

func TestThresholdOrderingValidation(t *testing.T) {
	cands := paperCandidates(t)
	reversed := []profile.Arch{cands[2], cands[1], cands[0]}
	if _, err := ComputeThresholds(reversed, Combinations, 1); err == nil {
		t.Error("Little→Big ordering accepted")
	}
}

func TestThresholdStepValidation(t *testing.T) {
	if _, err := ComputeThresholds(paperCandidates(t), Combinations, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := ComputeThresholds(nil, Combinations, 1); err != ErrNoCandidates {
		t.Error("empty candidates accepted")
	}
}

func TestThresholdBelowEveryBaselineIsCrossedAtFirstGridPoint(t *testing.T) {
	// A big machine strictly cheaper than the little one everywhere crosses
	// at rate = step.
	big := profile.Arch{Name: "big", MaxPerf: 100, IdlePower: 1, MaxPower: 2}
	little := profile.Arch{Name: "little", MaxPerf: 10, IdlePower: 5, MaxPower: 9}
	ths, err := ComputeThresholds([]profile.Arch{big, little}, Combinations, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ths[0].Rate != 1 || !ths[0].Crossed {
		t.Errorf("always-cheaper big: threshold = %+v, want crossing at 1", ths[0])
	}
}

func TestExactSolverMatchesHandComputedOptimum(t *testing.T) {
	cands := paperCandidates(t)
	solver, err := NewExactSolver(cands, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rate float64
		want float64
	}{
		{0, 0},
		// One raspberry partially loaded: 3.1 + (5/9)*0.6.
		{5, 3.1 + 5.0/9.0*0.6},
		// One full raspberry.
		{9, 3.7},
		// Rate 10: one chromebook at 10 beats rasp fleet (threshold point).
		{10, 4 + 10.0/33.0*3.6},
		// One full chromebook.
		{33, 7.6},
		// 529: one paravance at 529 (the crossing point).
		{529, 69.9 + 529.0/1331.0*130.6},
		// Full paravance.
		{1331, 200.5},
	}
	for _, c := range cases {
		got := float64(solver.PowerAt(c.rate))
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("ExactPower(%v) = %v, want %v", c.rate, got, c.want)
		}
	}
}

func TestExactSolverAt528PrefersChromebooks(t *testing.T) {
	solver, err := NewExactSolver(paperCandidates(t), 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Just below the Big threshold, 16 full chromebooks (528 req/s) win.
	if got, want := float64(solver.PowerAt(528)), 16*7.6; math.Abs(got-want) > 1e-6 {
		t.Errorf("ExactPower(528) = %v, want %v (16 full chromebooks)", got, want)
	}
	combo := newRefExactTable(paperCandidates(t), 600, 1).combinationAt(528)
	if combo.Counts()[profile.Chromebook] != 16 {
		t.Errorf("combination at 528 = %v, want 16 chromebooks", combo)
	}
}

func TestExactCombinationServesRate(t *testing.T) {
	solver, err := NewExactSolver(paperCandidates(t), 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefExactTable(paperCandidates(t), 3000, 1)
	for _, rate := range []float64{1, 9, 10, 33, 100, 529, 1331, 1500, 2662, 2999} {
		c := ref.combinationAt(rate)
		if c.Infeasible != 0 {
			t.Errorf("rate %v: infeasible remainder %v", rate, c.Infeasible)
		}
		if c.Rate() < rate-1e-6 {
			t.Errorf("rate %v: combination serves only %v", rate, c.Rate())
		}
		if math.Abs(float64(c.Power())-float64(solver.PowerAt(rate))) > 1e-6 {
			t.Errorf("rate %v: reconstruction power %v != DP power %v", rate, c.Power(), solver.PowerAt(rate))
		}
	}
}

func TestExactSolverMonotone(t *testing.T) {
	solver, err := NewExactSolver(paperCandidates(t), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for r := 1.0; r <= 2000; r++ {
		cur := float64(solver.PowerAt(r))
		// Optimal cost is non-decreasing in served rate up to grid noise.
		if cur < prev-1e-6 {
			t.Fatalf("optimal power decreased: P(%v)=%v < P(%v)=%v", r, cur, r-1, prev)
		}
		prev = cur
	}
}

func TestExactSolverValidation(t *testing.T) {
	if _, err := NewExactSolver(nil, 100, 1); err != ErrNoCandidates {
		t.Error("empty candidates accepted")
	}
	if _, err := NewExactSolver(paperCandidates(t), 100, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewExactSolver(paperCandidates(t), math.Inf(1), 1); err == nil {
		t.Error("infinite max rate accepted")
	}
	if _, err := NewExactSolver(paperCandidates(t), -1, 1); err == nil {
		t.Error("negative max rate accepted")
	}
}

func TestExactSolverFractionalInterpolation(t *testing.T) {
	solver, err := NewExactSolver(paperCandidates(t), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	p4 := float64(solver.PowerAt(4))
	p5 := float64(solver.PowerAt(5))
	mid := float64(solver.PowerAt(4.5))
	if math.Abs(mid-(p4+p5)/2) > 1e-9 {
		t.Errorf("PowerAt(4.5) = %v, want midpoint of %v and %v", mid, p4, p5)
	}
	if got := float64(solver.PowerAt(0)); got != 0 {
		t.Errorf("PowerAt(0) = %v", got)
	}
	if got := float64(solver.PowerAt(0.5)); got >= float64(solver.PowerAt(1)) {
		t.Errorf("PowerAt(0.5) = %v, want below PowerAt(1)=%v", got, solver.PowerAt(1))
	}
}

// ExactPower returns the theoretical minimum power to serve rate with the
// given candidate architectures (unlimited inventory), on a grid of the
// given step: one fresh ExactSolver's answer at rate.
func ExactPower(candidates []profile.Arch, rate, step float64) (power.Watts, error) {
	s, err := NewExactSolver(candidates, rate, step)
	if err != nil {
		return 0, err
	}
	return s.PowerAt(rate), nil
}

func TestExactPowerConvenience(t *testing.T) {
	got, err := ExactPower(paperCandidates(t), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got)-3.7) > 1e-9 {
		t.Errorf("ExactPower(9) = %v, want 3.7", got)
	}
}

func newPaperPlanner(t *testing.T, opts ...PlannerOption) *Planner {
	t.Helper()
	p, err := NewPlanner(profile.PaperMachines(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlannerCandidatesAndRoles(t *testing.T) {
	p := newPaperPlanner(t)
	cands := p.Candidates()
	if len(cands) != 3 || cands[0].Name != profile.Paravance || cands[2].Name != profile.Raspberry {
		t.Fatalf("candidates = %v", cands)
	}
	if p.Role(profile.Chromebook) != "Medium" {
		t.Errorf("role = %q", p.Role(profile.Chromebook))
	}
	if p.Big().Name != profile.Paravance || p.Little().Name != profile.Raspberry {
		t.Error("Big/Little accessors wrong")
	}
	if len(p.Removals()) != 2 {
		t.Errorf("removals = %v", p.Removals())
	}
}

func TestPlannerCombinationZeroRate(t *testing.T) {
	p := newPaperPlanner(t)
	c := p.Combination(0)
	if c.TotalNodes() != 0 || c.Power() != 0 {
		t.Errorf("zero rate combination = %v", c)
	}
	c = p.Combination(-5)
	if c.TotalNodes() != 0 {
		t.Errorf("negative rate combination = %v", c)
	}
}

func TestPlannerCombinationStructure(t *testing.T) {
	p := newPaperPlanner(t)
	cases := []struct {
		rate   float64
		counts map[string]int
	}{
		{5, map[string]int{profile.Raspberry: 1}},
		{9, map[string]int{profile.Raspberry: 1}},
		{10, map[string]int{profile.Chromebook: 1}},
		{33, map[string]int{profile.Chromebook: 1}},
		{529, map[string]int{profile.Paravance: 1}},
		{1331, map[string]int{profile.Paravance: 1}},
		// One full Big + remainder 100 → chromebooks (threshold 10 ≤ 100):
		// 3 full, then sub-remainder 1 < chromebook threshold → raspberry.
		{1431, map[string]int{profile.Paravance: 1, profile.Chromebook: 3, profile.Raspberry: 1}},
		// Two full Bigs.
		{2662, map[string]int{profile.Paravance: 2}},
		// Two Bigs + remainder 600 ≥ 529 → third Big partially loaded.
		{3262, map[string]int{profile.Paravance: 3}},
	}
	for _, c := range cases {
		got := p.Combination(c.rate)
		counts := got.Counts()
		if len(counts) != len(c.counts) {
			t.Errorf("rate %v: combination %v, want counts %v", c.rate, got, c.counts)
			continue
		}
		for k, v := range c.counts {
			if counts[k] != v {
				t.Errorf("rate %v: %s count = %d, want %d (combo %v)", c.rate, k, counts[k], v, got)
			}
		}
		if got.Rate() < c.rate-1e-9 {
			t.Errorf("rate %v: combination serves only %v", c.rate, got.Rate())
		}
	}
}

func TestPlannerRemainderBelowLittleThreshold(t *testing.T) {
	p := newPaperPlanner(t, WithStep(1))
	// Rate 0.4 rounds up to one grid unit and lands on a Little node.
	c := p.Combination(0.4)
	if c.Counts()[profile.Raspberry] != 1 {
		t.Errorf("tiny rate combination = %v, want one raspberry", c)
	}
}

func TestPlannerPowerNeverBelowExact(t *testing.T) {
	p := newPaperPlanner(t)
	solver, err := NewExactSolver(p.Candidates(), 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0.0; r <= 3000; r += 7 {
		heur := float64(p.PowerAt(r))
		exact := float64(solver.PowerAt(r))
		if heur < exact-1e-6 {
			t.Fatalf("heuristic at %v (%v W) beats exact optimum (%v W): DP bug", r, heur, exact)
		}
		// The paper's greedy should stay close to optimal; allow 15%.
		if exact > 0 && heur > exact*1.15+1e-9 {
			t.Errorf("heuristic at %v = %v W, >15%% above optimum %v W", r, heur, exact)
		}
	}
}

func TestPlannerTable(t *testing.T) {
	p := newPaperPlanner(t)
	tab := p.Lookup(100)
	for _, r := range []float64{0, 1, 9, 10, 50, 99.5, 100, 200} {
		want := p.Combination(math.Min(math.Ceil(r), 100))
		if got := tab.Counts(r, nil); !slices.Equal(got, want.nodes()) {
			t.Errorf("Lookup(100).Counts(%v) = %v, want %v", r, got, want)
		}
	}
}

func TestPlannerBMLLinear(t *testing.T) {
	p := newPaperPlanner(t)
	lin := p.BMLLinear()
	if float64(lin.Idle) != 3.1 {
		t.Errorf("BML-linear idle = %v, want Little's 3.1", lin.Idle)
	}
	if float64(lin.Max) != 200.5 || lin.MaxRate != 1331 {
		t.Errorf("BML-linear max = %v@%v, want Big's 200.5@1331", lin.Max, lin.MaxRate)
	}
}

func TestPlannerWithInventoryLimits(t *testing.T) {
	p, err := NewPlanner(profile.PaperMachines(),
		WithInventory(map[string]int{
			profile.Paravance:  1,
			profile.Chromebook: 2,
			profile.Raspberry:  3,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.MaxRate(), 1331.0+2*33+3*9; got != want {
		t.Errorf("MaxRate = %v, want %v", got, want)
	}
	// Demand beyond the single Big spills to chromebooks then raspberries.
	c := p.Combination(1331 + 40)
	counts := c.Counts()
	if counts[profile.Paravance] != 1 {
		t.Errorf("combo %v: want the single paravance used", c)
	}
	// Remainder 40: one full chromebook (33), then sub-remainder 7 goes to
	// a raspberry (below chromebook's threshold of 10).
	if counts[profile.Chromebook] != 1 || counts[profile.Raspberry] != 1 {
		t.Errorf("combo %v: want one chromebook + one raspberry for remainder 40", c)
	}
	if c.Infeasible != 0 {
		t.Errorf("combo %v: unexpected infeasible part", c)
	}
	// Demand beyond total capacity reports the uncoverable remainder.
	over := p.Combination(p.MaxRate() + 100)
	if over.Infeasible <= 0 {
		t.Errorf("over-capacity combination reports no infeasibility: %v", over)
	}
}

func TestPlannerUnlimitedMaxRate(t *testing.T) {
	p := newPaperPlanner(t)
	if !math.IsInf(p.MaxRate(), 1) {
		t.Errorf("MaxRate = %v, want +Inf without inventory", p.MaxRate())
	}
}

func TestPlannerPreFiltered(t *testing.T) {
	cands := paperCandidates(t)
	p, err := NewPlanner(cands, WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Removals()) != 0 {
		t.Errorf("pre-filtered planner performed removals: %v", p.Removals())
	}
	if len(p.Candidates()) != 3 {
		t.Errorf("candidates = %v", p.Candidates())
	}
}

func TestPlannerInvalidOptions(t *testing.T) {
	if _, err := NewPlanner(profile.PaperMachines(), WithStep(0)); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewPlanner(nil); err == nil {
		t.Error("empty arch list accepted")
	}
}

func TestPlannerModelInterface(t *testing.T) {
	p := newPaperPlanner(t)
	m := p.Model(1331)
	if m.MaxPerf() != 1331 {
		t.Errorf("MaxPerf = %v", m.MaxPerf())
	}
	if got, want := float64(m.PowerAt(9)), 3.7; math.Abs(got-want) > 1e-9 {
		t.Errorf("model PowerAt(9) = %v, want %v", got, want)
	}
	// Beyond-max queries clamp.
	if got := m.PowerAt(5000); got != m.PowerAt(1331) {
		t.Errorf("model did not clamp: %v vs %v", got, m.PowerAt(1331))
	}
}

func TestCombinationPowerAndCapacity(t *testing.T) {
	cands := paperCandidates(t)
	c := newCombination(cands)
	c.addFull(cands[0], 2)     // 2 paravance full
	c.addPartial(cands[1], 12) // 1 chromebook at 12
	if got, want := float64(c.Power()), 2*200.5+(4+12.0/33.0*3.6); math.Abs(got-want) > 1e-9 {
		t.Errorf("Power = %v, want %v", got, want)
	}
	if got, want := c.Capacity(), 2*1331.0+33; got != want {
		t.Errorf("Capacity = %v, want %v", got, want)
	}
	if got := c.TotalNodes(); got != 3 {
		t.Errorf("TotalNodes = %d, want 3", got)
	}
	if got, want := c.Rate(), 2*1331.0+12; got != want {
		t.Errorf("Rate = %v, want %v", got, want)
	}
}

func TestCombinationPartialMergeConsolidates(t *testing.T) {
	cands := paperCandidates(t)
	c := newCombination(cands)
	little := cands[2] // raspberry, maxPerf 9
	c.addPartial(little, 5)
	c.addPartial(little, 7) // total 12 = 1 full + partial 3
	slot := c.Slots[2]
	if slot.Full != 1 || math.Abs(slot.PartialLoad-3) > 1e-9 {
		t.Errorf("merged slot = %+v, want 1 full + partial 3", slot)
	}
}

func TestCombinationCountsIgnoreLoadSplit(t *testing.T) {
	cands := paperCandidates(t)
	a := newCombination(cands)
	a.addFull(cands[0], 1)
	a.addPartial(cands[1], 5)
	b := newCombination(cands)
	b.addFull(cands[0], 1)
	b.addPartial(cands[1], 20)
	if !sameNodes(a, b) {
		t.Errorf("combinations with identical node counts reported different: %v vs %v", a.Counts(), b.Counts())
	}
	b.addFull(cands[2], 1)
	if sameNodes(a, b) {
		t.Error("different node counts reported same")
	}
}

// sameNodes reports whether two combinations use the same node counts per
// architecture, however their load is split.
func sameNodes(a, b Combination) bool { return maps.Equal(a.Counts(), b.Counts()) }

func TestCombinationString(t *testing.T) {
	cands := paperCandidates(t)
	c := newCombination(cands)
	if s := c.String(); s == "" {
		t.Error("empty combination renders empty string")
	}
	c.addFull(cands[0], 1)
	c.addPartial(cands[2], 4.5)
	s := c.String()
	if s == "" {
		t.Error("String() empty")
	}
}

func TestThresholdString(t *testing.T) {
	th := Threshold{Arch: profile.PaperMachines()[0], Rate: 529, Crossed: true}
	if th.String() == "" {
		t.Error("empty threshold string")
	}
	th.Crossed = false
	if th.String() == th.Arch.Name {
		t.Error("defaulted threshold string lacks annotation")
	}
}

func TestThresholdModeString(t *testing.T) {
	if Homogeneous.String() == "" || Combinations.String() == "" {
		t.Error("mode strings empty")
	}
	if ThresholdMode(99).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestRemovalString(t *testing.T) {
	r := Removal{Arch: profile.PaperMachines()[1], Step: 2, Reason: "dominated"}
	if r.String() == "" {
		t.Error("empty removal string")
	}
}

func TestPlannerIgnoresOnOffCostsInPlacement(t *testing.T) {
	// Planning is purely about steady-state power; two profiles identical
	// except for transition costs must produce identical combinations.
	a := profile.PaperMachines()
	b := profile.PaperMachines()
	for i := range b {
		b[i].OnDuration = time.Hour
		b[i].OnEnergy = 1e9
	}
	pa, err := NewPlanner(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPlanner(b)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0.0; r < 2000; r += 13 {
		if !sameNodes(pa.Combination(r), pb.Combination(r)) {
			t.Fatalf("transition costs changed placement at rate %v", r)
		}
	}
}
