package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/trace"
)

func TestRunAllMatchesSequentialRuns(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	set, err := RunAll(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seqBML, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seqLB, err := RunLowerBound(tr, planner.Candidates())
	if err != nil {
		t.Fatal(err)
	}
	if set.BML.TotalEnergy != seqBML.TotalEnergy {
		t.Errorf("parallel BML %v != sequential %v", set.BML.TotalEnergy, seqBML.TotalEnergy)
	}
	if set.LowerBound.TotalEnergy != seqLB.TotalEnergy {
		t.Errorf("parallel LB %v != sequential %v", set.LowerBound.TotalEnergy, seqLB.TotalEnergy)
	}
	if set.UpperBoundGlobal == nil || set.UpperBoundPerDay == nil {
		t.Error("missing scenario results")
	}
}

func TestRunAllValidation(t *testing.T) {
	if _, err := RunAll(nil, fastPlanner(t), BMLConfig{}); err == nil {
		t.Error("nil trace accepted")
	}
	tr := dayTrace(t, 1, 100)
	if _, err := RunAll(tr, nil, BMLConfig{}); err == nil {
		t.Error("nil planner accepted")
	}
}

func TestRunBMLOverheadAwareReducesDecisions(t *testing.T) {
	// A noisy flat load around the big/little crossover provokes flapping;
	// the overhead-aware policy must cut decisions without hurting energy
	// catastrophically.
	vals := make([]float64, 4*3600)
	for i := range vals {
		base := 95.0
		if (i/40)%2 == 1 {
			base = 101
		}
		vals[i] = base
	}
	tr := shortTrace(t, vals)
	planner := fastPlanner(t)
	plain, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 s horizon: the ~2 W saving of dropping the little node (10 J)
	// cannot amortize its 17 J switch round trip.
	aware, err := RunBML(tr, planner, BMLConfig{OverheadAware: true, AmortizeSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if aware.Skipped == 0 {
		t.Error("overhead-aware run skipped nothing on a flapping load")
	}
	if aware.Decisions >= plain.Decisions {
		t.Errorf("decisions not reduced: %d vs %d", aware.Decisions, plain.Decisions)
	}
	if float64(aware.TotalEnergy) > float64(plain.TotalEnergy)*1.1 {
		t.Errorf("overhead-aware energy %v far above plain %v", aware.TotalEnergy, plain.TotalEnergy)
	}
}

func TestRunBMLWithAppSpec(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	spec := app.StatelessWebServer()
	spec.Migration.Energy = 25
	spec.Migration.Duration = 2 * time.Second
	res, err := RunBML(tr, planner, BMLConfig{App: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.MigrationEnergy == 0 {
		t.Error("no migration energy charged over a diurnal day")
	}
	if math.Mod(float64(res.MigrationEnergy), 25) != 0 {
		t.Errorf("migration energy %v not a multiple of per-instance cost", res.MigrationEnergy)
	}
	// Migration energy is part of the total.
	plain, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.TotalEnergy) <= float64(plain.TotalEnergy) {
		t.Errorf("migration overhead missing from total: %v vs %v", res.TotalEnergy, plain.TotalEnergy)
	}
}

func TestRunBMLCriticalAppGetsHeadroom(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	critical := app.StatelessWebServer()
	critical.Class = app.Critical
	res, err := RunBML(tr, planner, BMLConfig{App: &critical})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.TotalEnergy) <= float64(plain.TotalEnergy) {
		t.Errorf("critical headroom did not increase provisioning: %v vs %v",
			res.TotalEnergy, plain.TotalEnergy)
	}
	if res.QoS.Availability() < plain.QoS.Availability()-1e-9 {
		t.Error("critical class reduced availability")
	}
}

func TestRunBMLRecorded(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	rec, err := RunBMLRecorded(tr, fastPlanner(t), BMLConfig{}, 600)
	if err != nil {
		t.Fatal(err)
	}
	wantBuckets := trace.SecondsPerDay / 600
	if len(rec.Load) != wantBuckets || len(rec.Power) != wantBuckets || len(rec.StaticPower) != wantBuckets {
		t.Fatalf("bucket counts = %d/%d/%d, want %d", len(rec.Load), len(rec.Power), len(rec.StaticPower), wantBuckets)
	}
	// The recorded aggregate matches a plain run.
	plain, err := RunBML(tr, fastPlanner(t), BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.TotalEnergy != plain.TotalEnergy {
		t.Errorf("recorded total %v != plain %v", rec.Result.TotalEnergy, plain.TotalEnergy)
	}
	// Mean recorded power × duration reproduces the total energy.
	var sum float64
	for _, p := range rec.Power {
		sum += p * 600
	}
	if math.Abs(sum-float64(rec.Result.TotalEnergy)) > 1e-6 {
		t.Errorf("bucketed power integrates to %v, want %v", sum, rec.Result.TotalEnergy)
	}
	// Proportionality: power correlates with load across buckets (noon
	// bucket draws more than the midnight bucket).
	if rec.Power[len(rec.Power)/2] <= rec.Power[0] {
		t.Errorf("noon power %v not above midnight power %v", rec.Power[len(rec.Power)/2], rec.Power[0])
	}
	// The static reference never drops below its idle floor.
	idleFloor := float64(fastPlanner(t).Big().IdlePower)
	for i, p := range rec.StaticPower {
		if p < idleFloor {
			t.Fatalf("static power %v below one machine's idle at bucket %d", p, i)
		}
	}
}

func TestRunBMLRecordedValidation(t *testing.T) {
	tr := dayTrace(t, 1, 100)
	if _, err := RunBMLRecorded(nil, fastPlanner(t), BMLConfig{}, 60); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := RunBMLRecorded(tr, nil, BMLConfig{}, 60); err == nil {
		t.Error("nil planner accepted")
	}
	if _, err := RunBMLRecorded(tr, fastPlanner(t), BMLConfig{}, 0); err == nil {
		t.Error("zero bucket width accepted")
	}
}

func TestRunBMLRecordedPartialLastBucket(t *testing.T) {
	tr := shortTrace(t, mkConst(1000, 50))
	rec, err := RunBMLRecorded(tr, fastPlanner(t), BMLConfig{}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Load) != 4 { // 300+300+300+100
		t.Fatalf("buckets = %d, want 4", len(rec.Load))
	}
	if math.Abs(rec.Load[3]-50) > 1e-9 {
		t.Errorf("partial bucket mean = %v, want 50", rec.Load[3])
	}
}

// sweepAll runs jobs through SweepStream and returns every result in job
// order — the in-process oracle the differential suites compare against.
func sweepAll(jobs []SweepJob, workers int) []SweepResult {
	out := make([]SweepResult, len(jobs))
	_ = SweepStream(jobs, workers, func(r SweepResult) error {
		out[r.Index] = r
		return nil
	})
	return out
}

// TestSweepFleetScaleGrid exercises the scenario × trace × fleet grid: the
// FleetScale knob multiplies each job's offered load, so the scheduler
// provisions proportionally larger fleets while per-job results stay
// self-consistent (energy and switch activity grow with the fleet, and the
// served fraction does not degrade).
func TestSweepFleetScaleGrid(t *testing.T) {
	tr := dayTrace(t, 1, 250)
	planner := fastPlanner(t)
	scales := []float64{1, 4, 16}
	var jobs []SweepJob
	for _, f := range scales {
		for _, sc := range []Scenario{ScenarioUpperBoundGlobal, ScenarioBML} {
			jobs = append(jobs, SweepJob{
				Name: fmt.Sprintf("%s/fleet=%g", sc, f), Trace: tr,
				Planner: planner, Scenario: sc, FleetScale: f,
			})
		}
	}
	results := sweepAll(jobs, 0)
	byName := make(map[string]*Result, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.Name, r.Err)
		}
		byName[r.Job.Name] = r.Result
	}
	for i := 1; i < len(scales); i++ {
		small := byName[fmt.Sprintf("bml/fleet=%g", scales[i-1])]
		large := byName[fmt.Sprintf("bml/fleet=%g", scales[i])]
		ratio := scales[i] / scales[i-1]
		if float64(large.TotalEnergy) < float64(small.TotalEnergy)*ratio/2 {
			t.Errorf("fleet ×%g energy %v did not scale from %v", scales[i], large.TotalEnergy, small.TotalEnergy)
		}
		if large.SwitchOns <= small.SwitchOns {
			t.Errorf("fleet ×%g switch-ons %d not above ×%g's %d", scales[i], large.SwitchOns, scales[i-1], small.SwitchOns)
		}
		if large.QoS.Availability() < small.QoS.Availability()-0.01 {
			t.Errorf("fleet ×%g availability %v collapsed from %v", scales[i], large.QoS.Availability(), small.QoS.Availability())
		}
	}
}

// TestSweepFleetScaleInvalid reports bad scales as per-job errors.
func TestSweepFleetScaleInvalid(t *testing.T) {
	tr := dayTrace(t, 1, 100)
	res := sweepAll([]SweepJob{{Trace: tr, Planner: fastPlanner(t), Scenario: ScenarioBML, FleetScale: math.NaN()}}, 1)
	if res[0].Err == nil {
		t.Error("NaN fleet scale accepted")
	}
}

// TestSweepSharedExactSolverMatchesRunLowerBound runs a two-trace grid over
// fleets {0, 50, 500} in shuffled cell order, so the sweep's one exact
// solver per planner is grown and sliced in an arbitrary order while BML
// cells share the planner's lookups, and holds every
// LowerBound cell to a standalone RunLowerBound and every BML cell to a
// standalone RunBML, field by field.
func TestSweepSharedExactSolverMatchesRunLowerBound(t *testing.T) {
	planner := fastPlanner(t)
	var axes []TraceAxis
	for i, peak := range []float64{250, 180} {
		tr, err := dayTrace(t, 1, peak).Quantize(600)
		if err != nil {
			t.Fatal(err)
		}
		axes = append(axes, TraceAxis{Name: fmt.Sprintf("t%d", i), Trace: tr})
	}
	jobs, err := Grid(axes, planner, nil, []int{0, 50, 500})
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	lowerBounds := 0
	for _, r := range sweepAll(jobs, 4) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.Name, r.Err)
		}
		tr := r.Job.Trace
		if f := r.Job.FleetScale; f != 0 && f != 1 {
			if tr, err = tr.Scale(f); err != nil {
				t.Fatal(err)
			}
		}
		var want *Result
		switch r.Job.Scenario {
		case ScenarioLowerBound:
			lowerBounds++
			want, err = RunLowerBound(tr, planner.Candidates())
		case ScenarioBML:
			want, err = RunBML(tr, planner, r.Job.BML)
		default:
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, r.Job.Name, r.Result, want)
	}
	if lowerBounds != 6 {
		t.Errorf("%d LowerBound cells, want 6", lowerBounds)
	}
}

// paperShapedGrid is a 3-trace × fleets {0, 50, 500} grid on the fast
// planner, the shape of a paper grid's ablation sweep.
func paperShapedGrid(t *testing.T, planner *bml.Planner) []SweepJob {
	t.Helper()
	var axes []TraceAxis
	for i, peak := range []float64{250, 180, 250} {
		tr, err := dayTrace(t, 1, peak).Quantize(600)
		if err != nil {
			t.Fatal(err)
		}
		axes = append(axes, TraceAxis{Name: fmt.Sprintf("t%d", i), Trace: tr})
	}
	configs := []ConfigAxis{{Name: "default"}, {Name: "h13", Config: BMLConfig{Headroom: 1.3}}}
	jobs, err := Grid(axes, planner, configs, []int{0, 50, 500})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestDispatchOrder: SweepStream starts every job once, in grid order,
// except each planner's LowerBound cells other than its largest, which
// start last, in grid order. The largest is the first cell asking for the
// planner's largest exact table (its scaled peak rounded up to the unit
// grid), and it keeps its place.
func TestDispatchOrder(t *testing.T) {
	p1, p2 := fastPlanner(t), fastPlanner(t)
	jobs := paperShapedGrid(t, p1)
	jobs = append(jobs, paperShapedGrid(t, p2)[:10]...) // p2's t0 at fleets 0 and 50
	units := func(j SweepJob) float64 {
		f := j.FleetScale
		if f == 0 {
			f = 1
		}
		return math.Ceil(j.Trace.Max()*f - 1e-9)
	}
	largest := map[*bml.Planner]int{}
	for i, j := range jobs {
		if j.Scenario != ScenarioLowerBound {
			continue
		}
		if k, ok := largest[j.Planner]; !ok || units(j) > units(jobs[k]) {
			largest[j.Planner] = i
		}
	}
	// Each planner's largest cell is one at its largest fleet.
	if got := jobs[largest[p1]].Name; !strings.HasSuffix(got, "/fleet=500") {
		t.Fatalf("p1's largest LowerBound cell is %s", got)
	}
	if got := jobs[largest[p2]].Name; !strings.HasSuffix(got, "/fleet=50") {
		t.Fatalf("p2's largest LowerBound cell is %s", got)
	}
	var first, last []int
	for i, j := range jobs {
		if j.Scenario == ScenarioLowerBound && largest[j.Planner] != i {
			last = append(last, i)
		} else {
			first = append(first, i)
		}
	}
	want := append(first, last...)
	if got := dispatchOrder(jobs); !slices.Equal(got, want) {
		t.Fatalf("dispatchOrder = %v, want %v", got, want)
	}
	// One worker emits in the order it starts.
	var started []int
	if err := SweepStream(jobs, 1, func(r SweepResult) error {
		started = append(started, r.Index)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(started, want) {
		t.Fatalf("one worker ran %v, want %v", started, want)
	}

	// Peaks that round up to the same table tie, and the first keeps
	// its place even when a later one is larger by an ulp.
	tr := shortTrace(t, []float64{50, 100.3, 20})
	lb := func(f float64) SweepJob {
		return SweepJob{Trace: tr, Planner: p1, Scenario: ScenarioLowerBound, FleetScale: f}
	}
	tie := []SweepJob{lb(1), lb(2), {Trace: tr, Planner: p1, Scenario: ScenarioBML}, lb(math.Nextafter(2, 3))}
	if got := dispatchOrder(tie); !slices.Equal(got, []int{1, 2, 0, 3}) {
		t.Errorf("dispatchOrder of tied peaks = %v, want [1 2 0 3]", got)
	}
}

// TestSweepStreamMatchesStandaloneRuns holds every cell of a paper-shaped
// grid, swept at one and two workers in dispatch order, to a standalone
// run of that cell on a fresh planner, field by field.
func TestSweepStreamMatchesStandaloneRuns(t *testing.T) {
	for _, workers := range []int{1, 2} {
		planner := fastPlanner(t)
		jobs := paperShapedGrid(t, planner)
		for _, r := range sweepAll(jobs, workers) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Job.Name, r.Err)
			}
			j := r.Job
			j.Planner = fastPlanner(t)
			tr := j.Trace
			if f := j.FleetScale; f != 0 {
				var err error
				if tr, err = tr.Scale(f); err != nil {
					t.Fatal(err)
				}
			}
			var want *Result
			var err error
			switch j.Scenario {
			case ScenarioUpperBoundGlobal:
				want, err = RunUpperBoundGlobal(tr, j.Planner.Big())
			case ScenarioUpperBoundPerDay:
				want, err = RunUpperBoundPerDay(tr, j.Planner.Big())
			case ScenarioBML:
				want, err = RunBML(tr, j.Planner, j.BML)
			case ScenarioLowerBound:
				want, err = RunLowerBound(tr, j.Planner.Candidates())
			}
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%d workers: %s", workers, j.Name), r.Result, want)
		}
	}
}
