package repro_test

// Cross-module integration tests: each test exercises a complete pipeline
// the way the cmd tools and examples do, rather than a single package.

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/loadgen"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/profiler"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wc98"
	"repro/internal/webapp"
)

// TestPipelineProfileToPlanToSim runs the full Step 1 → Steps 2–5 →
// evaluation pipeline: profiles are *measured* from the emulated hardware
// (with realistic meter noise), fed into the planner, and the resulting
// plan drives a simulated day. The measured plan must reproduce the
// paper's candidate selection and stay within a few percent of the
// ground-truth plan's energy.
func TestPipelineProfileToPlanToSim(t *testing.T) {
	ctx := context.Background()
	measured, err := profiler.ProfileAll(ctx, profile.PaperMachines(), profiler.Config{
		SkipLiveBench: true,
		MeterNoise:    0.015,
		MeterSeed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	measuredPlanner, err := bml.NewPlanner(measured)
	if err != nil {
		t.Fatal(err)
	}
	truthPlanner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	// Candidate selection survives meter noise.
	wantClasses := []string{profile.Paravance, profile.Chromebook, profile.Raspberry}
	got := measuredPlanner.Candidates()
	if len(got) != len(wantClasses) {
		t.Fatalf("measured candidates = %v", got)
	}
	for i, w := range wantClasses {
		if got[i].Name != w {
			t.Errorf("measured candidate %d = %q, want %q", i, got[i].Name, w)
		}
	}
	// Thresholds stay near the paper's.
	ths := bml.ThresholdMap(measuredPlanner.Thresholds())
	if ths[profile.Chromebook] < 8 || ths[profile.Chromebook] > 12 {
		t.Errorf("measured chromebook threshold = %v, want ≈10", ths[profile.Chromebook])
	}
	if ths[profile.Paravance] < 500 || ths[profile.Paravance] > 560 {
		t.Errorf("measured paravance threshold = %v, want ≈529", ths[profile.Paravance])
	}
	// A simulated day under the measured plan lands within 5% of the
	// ground-truth plan's energy.
	day := make([]float64, 6*3600)
	for i := range day {
		tod := float64(i) / float64(len(day))
		day[i] = 3000 * (0.5 - 0.5*math.Cos(2*math.Pi*tod))
	}
	tr, err := trace.New(day)
	if err != nil {
		t.Fatal(err)
	}
	resMeasured, err := sim.RunBML(tr, measuredPlanner, sim.BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resTruth, err := sim.RunBML(tr, truthPlanner, sim.BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(float64(resMeasured.TotalEnergy)-float64(resTruth.TotalEnergy)) / float64(resTruth.TotalEnergy)
	if rel > 0.05 {
		t.Errorf("measured-plan energy deviates %.1f%% from ground truth", rel*100)
	}
}

// TestPipelineTraceFileRoundTripThroughEvaluation writes a generated trace
// to the on-disk format, reads it back, and verifies the evaluation is
// identical — the bmltrace → bmlsim workflow.
func TestPipelineTraceFileRoundTripThroughEvaluation(t *testing.T) {
	cfg := trace.WorldCupConfig{Days: 1, PeakRate: 4200, Seed: 21, Noise: 0.1, BurstLevel: 1}
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evA, err := wc98.Run(tr, profile.PaperMachines(), wc98.Config{FirstDay: 1, LastDay: 1})
	if err != nil {
		t.Fatal(err)
	}
	evB, err := wc98.Run(back, profile.PaperMachines(), wc98.Config{FirstDay: 1, LastDay: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := evA.Rows[0], evB.Rows[0]
	if math.Abs(float64(a.BML-b.BML)) > 1 || math.Abs(float64(a.LowerBound-b.LowerBound)) > 1 {
		t.Errorf("round-tripped trace changed the evaluation: %+v vs %+v", a, b)
	}
}

// TestPipelineAccessLogToSimulation converts a synthetic CLF access log to
// a trace and runs the scheduler over it.
func TestPipelineAccessLogToSimulation(t *testing.T) {
	var log strings.Builder
	base := time.Date(1998, 7, 1, 12, 0, 0, 0, time.UTC)
	for s := 0; s < 1800; s++ {
		// Ramp from ~5 to ~50 requests per second.
		n := 5 + s/40
		for k := 0; k < n; k++ {
			log.WriteString(`h - - [` + base.Add(time.Duration(s)*time.Second).Format("02/Jan/2006:15:04:05 -0700") + `] "GET / HTTP/1.0" 200 1` + "\n")
		}
	}
	tr, skipped, err := trace.FromAccessLog(strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBML(tr, planner, sim.BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy <= 0 {
		t.Error("no energy accounted")
	}
	if res.QoS.Availability() < 0.95 {
		t.Errorf("availability = %v", res.QoS.Availability())
	}
}

// TestPipelineLiveFarmFollowsPlannerCombinations drives the live HTTP farm
// through combinations computed by the planner — the bmlserve control loop
// in miniature.
func TestPipelineLiveFarmFollowsPlannerCombinations(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	const rateScale = 0.5
	farm, err := webapp.NewFarm(planner.Candidates(), webapp.InstanceConfig{
		RateScale: rateScale,
		Seed:      9,
		Patience:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close(ctx)
	front := httptest.NewServer(farm.LoadBalancer())
	defer front.Close()

	for _, hwRate := range []float64{9, 40, 9} {
		target := map[string]int{}
		for _, s := range planner.Combination(hwRate).Slots {
			if n := s.Nodes(); n > 0 {
				target[s.Arch.Name] = n
			}
		}
		if err := farm.Reconfigure(ctx, target); err != nil {
			t.Fatal(err)
		}
		counts := farm.Counts()
		for name, n := range target {
			if counts[name] != n {
				t.Fatalf("farm counts %v, want %v", counts, target)
			}
		}
		res, err := loadgen.Run(ctx, front.URL, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Errorf("no requests served at combination %v", target)
		}
	}
}

// TestPipelineReportsRenderEndToEnd renders every report artifact from one
// evaluation without error — the bmlplan/bmlsim output paths.
func TestPipelineReportsRenderEndToEnd(t *testing.T) {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := report.TableI(&sink, planner.Candidates()); err != nil {
		t.Fatal(err)
	}
	if err := report.Removals(&sink, planner.Removals()); err != nil {
		t.Fatal(err)
	}
	roles := map[string]string{}
	for _, c := range planner.Candidates() {
		roles[c.Name] = planner.Role(c.Name)
	}
	if err := report.Thresholds(&sink, planner.Thresholds(), roles, bml.Combinations); err != nil {
		t.Fatal(err)
	}
	if err := report.Fig4Series(&sink, planner, 50); err != nil {
		t.Fatal(err)
	}
	if err := report.ProfileSeries(&sink, profile.PaperMachines(), 1331, 50); err != nil {
		t.Fatal(err)
	}
	curve := power.SampleModel(planner.Model(1331), 100)
	if err := report.Proportionality(&sink, "bml", curve); err != nil {
		t.Fatal(err)
	}
	cfg := trace.WorldCupConfig{Days: 1, PeakRate: 4000, Seed: 2, Noise: 0.05, BurstLevel: 1}
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := wc98.Run(tr, profile.PaperMachines(), wc98.Config{FirstDay: 1, LastDay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Fig5Table(&sink, ev); err != nil {
		t.Fatal(err)
	}
	if err := report.Fig5CSV(&sink, ev); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("no report output produced")
	}
}

// TestPipelineFutureWorkFeaturesCompose runs the scheduler with every
// extension enabled at once: critical app spec with migration costs,
// malleability bounds, overhead-aware policy, pattern predictor.
func TestPipelineFutureWorkFeaturesCompose(t *testing.T) {
	cfg := trace.WorldCupConfig{Days: 2, PeakRate: 4000, Seed: 31, Noise: 0.08, BurstLevel: 1}
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	spec := app.StatelessWebServer()
	spec.Class = app.Critical
	spec.Migration.Energy = 10
	spec.Migration.Duration = 2 * time.Second
	spec.Malleability = app.Malleability{MinInstances: 1}
	pattern, err := predict.NewDailyPattern(tr, 378, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunBML(tr, planner, sim.BMLConfig{
		App:           &spec,
		Predictor:     pattern,
		OverheadAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy <= 0 || res.Decisions == 0 {
		t.Errorf("composed run produced no activity: %+v", res)
	}
	// The pattern predictor has no information on day 1 beyond trailing
	// maxima, so some loss is expected; it must still serve the vast
	// majority of requests.
	if res.QoS.Availability() < 0.9 {
		t.Errorf("availability = %v", res.QoS.Availability())
	}
}
