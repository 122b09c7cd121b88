// Package repro_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (run with `go test -bench=. -benchmem`).
//
// Experiment benchmarks (one per table/figure; see EXPERIMENTS.md):
//
//	BenchmarkTableIProfiling     — Step 1 profiling of the five machines
//	BenchmarkFig1CandidateFilter — Step 2/3 filtering of A–D
//	BenchmarkFig2CrossingPoints  — Step 3 and Step 4 threshold computation
//	BenchmarkFig3ProfileSeries   — measured power/performance series
//	BenchmarkFig4CombinationCurve— ideal BML combination curve
//	BenchmarkFig5Scenarios       — the four-scenario daily-energy evaluation
//
// Ablation benchmarks explore the design choices DESIGN.md calls out:
// look-ahead window size, predictor choice, Step 4 versus Step 3
// thresholds, and injected prediction error (the paper's future work).
// Fig5-style benchmarks run on a compressed 2-day trace so a full -bench
// pass stays under a minute; cmd/bmlsim regenerates the full 87-day runs.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/profiler"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wc98"
)

// benchTrace caches the compressed evaluation trace across benchmarks.
var benchTrace *trace.Trace

func getBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	if benchTrace == nil {
		cfg := trace.DefaultWorldCupConfig()
		cfg.Days = 2
		cfg.Seed = 77
		tr, err := trace.GenerateWorldCup(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = tr
	}
	return benchTrace
}

func getPlanner(b *testing.B) *bml.Planner {
	b.Helper()
	p, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTableIProfiling regenerates Table I: the full Step 1 measurement
// pipeline (wattmeter-sampled idle/max power, automaton-timed On/Off
// cycles) for all five machines.
func BenchmarkTableIProfiling(b *testing.B) {
	ctx := context.Background()
	catalog := profile.PaperMachines()
	cfg := profiler.Config{SkipLiveBench: true, MeterNoise: 0.015, MeterSeed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		profiles, err := profiler.ProfileAll(ctx, catalog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) != 5 {
			b.Fatalf("profiles = %d", len(profiles))
		}
	}
}

// BenchmarkFig1CandidateFilter regenerates the Figure 1 narrative: Step 2
// dominance filtering plus Step 3 never-crossing pruning on the
// illustrative A–D catalog.
func BenchmarkFig1CandidateFilter(b *testing.B) {
	catalog := profile.Illustrative()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kept, removed, err := bml.SelectCandidates(catalog, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(kept) != 3 || len(removed) != 1 {
			b.Fatalf("kept %d removed %d", len(kept), len(removed))
		}
	}
}

// BenchmarkFig2CrossingPoints regenerates both panels of Figure 2: the
// Step 3 (homogeneous) and Step 4 (combinations) crossing points.
func BenchmarkFig2CrossingPoints(b *testing.B) {
	cands, _, err := bml.SelectCandidates(profile.Illustrative(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mode := range []bml.ThresholdMode{bml.Homogeneous, bml.Combinations} {
			if _, err := bml.ComputeThresholds(cands, mode, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3ProfileSeries regenerates the measured power/performance
// series of the five real machines.
func BenchmarkFig3ProfileSeries(b *testing.B) {
	catalog := profile.PaperMachines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := report.ProfileSeries(io.Discard, catalog, 1331, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4CombinationCurve regenerates Figure 4: the ideal BML
// combination power at every integer rate up to Big's maximum, against the
// Big-only and BML-linear references.
func BenchmarkFig4CombinationCurve(b *testing.B) {
	planner := getPlanner(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := planner.Lookup(1331)
		for r := 0; r <= 1331; r++ {
			if c := tab.At(float64(r)); c.Capacity() < float64(r) {
				b.Fatalf("combination at %d serves %v", r, c.Capacity())
			}
		}
		if err := report.Fig4Series(io.Discard, planner, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Scenarios regenerates the Figure 5 evaluation — all four
// scenarios — on the compressed 2-day trace.
func BenchmarkFig5Scenarios(b *testing.B) {
	tr := getBenchTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := wc98.Run(tr, profile.PaperMachines(), wc98.Config{FirstDay: 1, LastDay: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(ev.Rows) != 2 {
			b.Fatalf("rows = %d", len(ev.Rows))
		}
	}
}

// BenchmarkAblationWindowFactor sweeps the look-ahead window rule (the
// paper fixes it at 2× the longest boot; 1× risks QoS, 4× over-provisions).
func BenchmarkAblationWindowFactor(b *testing.B) {
	tr := getBenchTrace(b)
	planner := getPlanner(b)
	for _, factor := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{WindowFactor: factor})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
				b.ReportMetric((1-res.QoS.Availability())*1e6, "ppm-lost")
			}
		})
	}
}

// BenchmarkAblationPredictor compares the paper's look-ahead-max against
// the oracle, last-value and EWMA predictors.
func BenchmarkAblationPredictor(b *testing.B) {
	tr := getBenchTrace(b)
	planner := getPlanner(b)
	preds := map[string]func() predict.Predictor{
		"lookahead-max": func() predict.Predictor { return nil },
		"oracle":        func() predict.Predictor { return predict.NewOracle(tr) },
		"last-value":    func() predict.Predictor { return predict.NewLastValue(tr) },
		"ewma":          func() predict.Predictor { p, _ := predict.NewEWMA(tr, 0.1); return p },
	}
	for name, mk := range preds {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{Predictor: mk()})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
				b.ReportMetric((1-res.QoS.Availability())*1e6, "ppm-lost")
			}
		})
	}
}

// BenchmarkAblationThresholdMode compares planners built with Step 4
// thresholds (the paper's) against Step 3 homogeneous-only thresholds.
func BenchmarkAblationThresholdMode(b *testing.B) {
	tr := getBenchTrace(b)
	for _, mode := range []bml.ThresholdMode{bml.Homogeneous, bml.Combinations} {
		b.Run(mode.String(), func(b *testing.B) {
			planner, err := bml.NewPlanner(profile.PaperMachines(), bml.WithThresholdMode(mode))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
			}
		})
	}
}

// BenchmarkAblationPredictionError injects relative prediction error (the
// paper's stated future work) and reports its energy and QoS cost.
func BenchmarkAblationPredictionError(b *testing.B) {
	tr := getBenchTrace(b)
	planner := getPlanner(b)
	base, err := predict.NewLookaheadMax(tr, 378)
	if err != nil {
		b.Fatal(err)
	}
	for _, errLevel := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("err=%g%%", errLevel*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var p predict.Predictor = base
				if errLevel > 0 {
					wrapped, werr := predict.NewErrorInjector(base, errLevel, 7)
					if werr != nil {
						b.Fatal(werr)
					}
					p = wrapped
				}
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{Predictor: p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
				b.ReportMetric((1-res.QoS.Availability())*1e6, "ppm-lost")
			}
		})
	}
}

// BenchmarkAblationOverheadAware compares the plain scheduler against the
// future-work policy that skips reconfigurations unable to amortize their
// switching energy.
func BenchmarkAblationOverheadAware(b *testing.B) {
	tr := getBenchTrace(b)
	planner := getPlanner(b)
	for _, aware := range []bool{false, true} {
		name := "plain"
		if aware {
			name = "overhead-aware"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{OverheadAware: aware})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
				b.ReportMetric(float64(res.Decisions), "decisions")
				b.ReportMetric(float64(res.Skipped), "skipped")
			}
		})
	}
}

// BenchmarkAblationPatternPredictor compares the paper's future-peeking
// look-ahead-max against the causal daily-pattern predictor (§III's
// "partial" load-knowledge class), which only uses past samples.
func BenchmarkAblationPatternPredictor(b *testing.B) {
	tr := getBenchTrace(b)
	planner := getPlanner(b)
	pattern, err := predict.NewDailyPattern(tr, 378, 0)
	if err != nil {
		b.Fatal(err)
	}
	preds := []struct {
		name string
		p    predict.Predictor
	}{
		{"lookahead-max", nil},
		{"daily-pattern", pattern},
	}
	for _, pc := range preds {
		b.Run(pc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{Predictor: pc.p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
				b.ReportMetric((1-res.QoS.Availability())*1e6, "ppm-lost")
			}
		})
	}
}

// BenchmarkAblationMigrationCost sweeps the application migration energy
// (§III's migration overhead evaluation) and reports its share of total
// energy.
func BenchmarkAblationMigrationCost(b *testing.B) {
	tr := getBenchTrace(b)
	planner := getPlanner(b)
	for _, energy := range []float64{0, 50, 500} {
		b.Run(fmt.Sprintf("migJ=%g", energy), func(b *testing.B) {
			spec := app.StatelessWebServer()
			spec.Migration.Energy = power.Joules(energy)
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{App: &spec})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
				b.ReportMetric(float64(res.MigrationEnergy), "migJ")
			}
		})
	}
}

// engineBenchTrace generates a WC'98-shaped trace of the given length and
// quantizes it to 5-minute plateaus — the piecewise-constant load shape of
// per-minute-aggregated access logs.
// Cached per day-count so the benchmarks sharing a trace time only their
// own work, not generation and quantization.
var engineTraces = map[int]*trace.Trace{}

func engineBenchTrace(b *testing.B, days int) *trace.Trace {
	b.Helper()
	if tr, ok := engineTraces[days]; ok {
		return tr
	}
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = days
	cfg.Seed = 99
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err = tr.Quantize(300)
	if err != nil {
		b.Fatal(err)
	}
	engineTraces[days] = tr
	return tr
}

// benchBMLEngines runs the full BML scenario on tr under each named engine
// option, reporting kWh and simulated-seconds-per-second.
func benchBMLEngines(b *testing.B, tr *trace.Trace, engines []struct {
	name string
	opts []sim.Option
}) {
	planner := getPlanner(b)
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(tr, planner, sim.BMLConfig{}, eng.opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
			}
			b.ReportMetric(float64(tr.Len())/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e9, "simsec/s")
		})
	}
}

// tickVsIntegrator names the tick oracle and the default engine for
// benchBMLEngines.
var tickVsIntegrator = []struct {
	name string
	opts []sim.Option
}{
	{"tick", []sim.Option{sim.WithTickEngine()}},
	{"integrator", nil},
}

// benchEngines compares the tick oracle with the interval integrator on
// the quantized trace, where the integrator is orders of magnitude ahead
// (see BENCH_sim.json).
func benchEngines(b *testing.B, days int) {
	benchBMLEngines(b, engineBenchTrace(b, days), tickVsIntegrator)
}

// engineBenchTraceRaw is engineBenchTrace without the quantization step:
// the full-resolution 1 Hz World Cup trace, whose per-second noise makes
// virtually every sample a load change. Cached per day-count.
var engineTracesRaw = map[int]*trace.Trace{}

func engineBenchTraceRaw(b *testing.B, days int) *trace.Trace {
	b.Helper()
	if tr, ok := engineTracesRaw[days]; ok {
		return tr
	}
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = days
	cfg.Seed = 99
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engineTracesRaw[days] = tr
	return tr
}

// BenchmarkEngineDayTrace compares the engines on one simulated day.
func BenchmarkEngineDayTrace(b *testing.B) { benchEngines(b, 1) }

// BenchmarkEngineMonthTraceRaw compares the tick oracle against the
// interval integrator on a month of un-quantized 1 Hz trace, where every
// second is a load change: the tick loop pays one scheduler step per
// second while the integrator's engine iterations stay bounded by
// scheduler events. The benchcheck ratio gate holds integrator ≥10× tick
// here.
func BenchmarkEngineMonthTraceRaw(b *testing.B) {
	benchBMLEngines(b, engineBenchTraceRaw(b, 30), tickVsIntegrator)
}

// BenchmarkStaticScenariosRaw runs the three static Figure 5 scenarios
// (UpperBound Global, UpperBound PerDay, LowerBound) on a month of
// un-quantized 1 Hz trace: tick is the 1 Hz oracle loop, fold the default
// per-day fold kernels. The benchcheck ratio gate holds fold ahead of tick.
func BenchmarkStaticScenariosRaw(b *testing.B) {
	tr := engineBenchTraceRaw(b, 30)
	planner := getPlanner(b)
	for _, eng := range []struct {
		name string
		opts []sim.Option
	}{
		{"tick", []sim.Option{sim.WithTickEngine()}},
		{"fold", nil},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var kwh float64
				for _, run := range []func() (*sim.Result, error){
					func() (*sim.Result, error) { return sim.RunUpperBoundGlobal(tr, planner.Big(), eng.opts...) },
					func() (*sim.Result, error) { return sim.RunUpperBoundPerDay(tr, planner.Big(), eng.opts...) },
					func() (*sim.Result, error) { return sim.RunLowerBound(tr, planner.Candidates(), eng.opts...) },
				} {
					res, err := run()
					if err != nil {
						b.Fatal(err)
					}
					kwh += float64(res.TotalEnergy) / 3.6e6
				}
				b.ReportMetric(kwh, "kWh")
			}
			b.ReportMetric(3*float64(tr.Len())/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e9, "simsec/s")
		})
	}
}

// BenchmarkEngineMonthTrace compares the engines on a simulated month —
// the scale at which the tick loop's O(trace-seconds) cost dominates and
// the integrator's O(scheduler events) cost does not.
func BenchmarkEngineMonthTrace(b *testing.B) { benchEngines(b, 30) }

// BenchmarkEngineMonthAllScenarios runs the whole four-scenario evaluation
// (the Figure 5 workload) on the month-long trace with the default
// engines, fanned out across cores by RunAll.
func BenchmarkEngineMonthAllScenarios(b *testing.B) {
	tr := engineBenchTrace(b, 30)
	planner := getPlanner(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunAll(tr, planner, sim.BMLConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGrid measures a 3 traces × 4 scenarios sweep through the
// worker pool — the experiment-grid workload.
func BenchmarkSweepGrid(b *testing.B) {
	planner := getPlanner(b)
	var jobs []sim.SweepJob
	for day := 1; day <= 3; day++ {
		tr := engineBenchTrace(b, day)
		for _, sc := range []sim.Scenario{
			sim.ScenarioUpperBoundGlobal, sim.ScenarioUpperBoundPerDay,
			sim.ScenarioBML, sim.ScenarioLowerBound,
		} {
			jobs = append(jobs, sim.SweepJob{
				Name: fmt.Sprintf("%s/day%d", sc, day), Trace: tr,
				Planner: planner, Scenario: sc,
			})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := sim.SweepStream(jobs, 0, func(r sim.SweepResult) error { return r.Err })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedSweep measures the distributed-sweep path end to end in
// one process: the 3-trace × 4-scenario grid split into two deterministic
// shards, each streamed through SweepStream as JSONL cell records, then
// merged and validated against the expected cell set — the workflow
// cmd/bmlsweep drives across worker processes or CI matrix jobs. Compare
// with BenchmarkSweepGrid (the in-memory single-process path) to see the
// streaming/merge overhead.
func BenchmarkShardedSweep(b *testing.B) {
	planner := getPlanner(b)
	var jobs []sim.SweepJob
	for day := 1; day <= 3; day++ {
		tr := engineBenchTrace(b, day)
		for _, sc := range sim.Scenarios {
			jobs = append(jobs, sim.SweepJob{
				Name: fmt.Sprintf("%s/day%d", sc, day), Trace: tr,
				Planner: planner, Scenario: sc,
			})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var streamed bytes.Buffer
		for s := 0; s < 2; s++ {
			shard, err := sim.ShardJobs(jobs, sim.ShardSpec{Index: s, Count: 2})
			if err != nil {
				b.Fatal(err)
			}
			err = sim.SweepStream(shard, 0, func(r sim.SweepResult) error {
				if r.Err != nil {
					return r.Err
				}
				return sim.WriteCellRecord(&streamed, sim.NewCellRecord(r))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		records, err := sim.ReadCellRecords(&streamed)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sim.MergeCells(jobs, records); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetRig caches the quantized month trace scaled so the scheduler's peak
// combination provisions ~n machines, together with a prebuilt look-ahead
// predictor: predictor precomputation is O(trace) and independent of the
// fleet, so keeping it out of the timed loop isolates how the engine
// scales with fleet size.
type fleetRig struct {
	tr   *trace.Trace
	pred predict.Predictor
}

var fleetRigs = map[int]fleetRig{}

func fleetBenchRig(b *testing.B, n int) fleetRig {
	b.Helper()
	if rig, ok := fleetRigs[n]; ok {
		return rig
	}
	base := engineBenchTrace(b, 30)
	planner := getPlanner(b)
	baseNodes := planner.Combination(base.Max()).TotalNodes()
	if baseNodes < 1 {
		baseNodes = 1
	}
	tr, err := base.Scale(float64(n) / float64(baseNodes))
	if err != nil {
		b.Fatal(err)
	}
	pred, err := predict.NewLookaheadMax(tr, 378)
	if err != nil {
		b.Fatal(err)
	}
	rig := fleetRig{tr: tr, pred: pred}
	fleetRigs[n] = rig
	return rig
}

// BenchmarkFleetScaling measures the interval integrator on the quantized
// month trace at fleet scales of 100, 1 000, and 10 000 machines. Its
// per-span cost is independent of fleet size (transition min-heap and pool
// aggregates), so ns/op should grow far slower than the fleet; the
// snapshot lives in BENCH_sim.json.
func BenchmarkFleetScaling(b *testing.B) {
	planner := getPlanner(b)
	for _, n := range []int{100, 1000, 10000} {
		rig := fleetBenchRig(b, n)
		b.Run(fmt.Sprintf("fleet=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var switchOns int
			for i := 0; i < b.N; i++ {
				res, err := sim.RunBML(rig.tr, planner, sim.BMLConfig{Predictor: rig.pred})
				if err != nil {
					b.Fatal(err)
				}
				switchOns = res.SwitchOns
				b.ReportMetric(float64(res.TotalEnergy)/3.6e6, "kWh")
			}
			b.ReportMetric(float64(switchOns), "switch-ons")
		})
	}
}

// BenchmarkExactSolver measures the DP table construction cost (the
// LowerBound scenario's dominant setup).
func BenchmarkExactSolver(b *testing.B) {
	cands, _, err := bml.SelectCandidates(profile.PaperMachines(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bml.NewExactSolver(cands, 5400, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerCombination measures a single ideal-combination query.
func BenchmarkPlannerCombination(b *testing.B) {
	planner := getPlanner(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := planner.Combination(float64(1 + i%5000))
		if c.TotalNodes() == 0 {
			b.Fatal("empty combination")
		}
	}
}

// BenchmarkGenerateWorldCup measures synthesizing the default 92-day 1 Hz
// trace, the set-up cost every from-scratch Figure 5 run pays first.
func BenchmarkGenerateWorldCup(b *testing.B) {
	cfg := trace.DefaultWorldCupConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.GenerateWorldCup(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlidingMax measures the look-ahead precomputation over one day.
func BenchmarkSlidingMax(b *testing.B) {
	tr := getBenchTrace(b)
	day, err := tr.Day(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer() // generating the shared trace is not the measured work
	for i := 0; i < b.N; i++ {
		if _, err := day.SlidingMax(378); err != nil {
			b.Fatal(err)
		}
	}
}

var fullTrace *trace.Trace

// BenchmarkNewLookaheadMax measures building the paper's predictor (a
// 378 s look-ahead max) over the default 92-day 1 Hz trace: the per-trace
// set-up of every raw Figure 5 BML run, and its memory.
func BenchmarkNewLookaheadMax(b *testing.B) {
	if fullTrace == nil {
		tr, err := trace.GenerateWorldCup(trace.DefaultWorldCupConfig())
		if err != nil {
			b.Fatal(err)
		}
		fullTrace = tr
	}
	// One untimed build pays the process's first-use allocations, so a
	// -benchtime 1x run reads the same allocs/op as a long one.
	if _, err := predict.NewLookaheadMax(fullTrace, 378); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer() // generating the trace is not the measured work
	for i := 0; i < b.N; i++ {
		if _, err := predict.NewLookaheadMax(fullTrace, 378); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerDay measures one simulated day of the full BML
// scheduler (predictor + combination lookup + cluster automata).
func BenchmarkSchedulerDay(b *testing.B) {
	tr := getBenchTrace(b)
	day, err := tr.Day(1)
	if err != nil {
		b.Fatal(err)
	}
	planner := getPlanner(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunBML(day, planner, sim.BMLConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProportionalityMetrics measures IPR/LDR/gap computation on the
// BML combination curve.
func BenchmarkProportionalityMetrics(b *testing.B) {
	planner := getPlanner(b)
	curve := power.SampleModel(planner.Model(1331), 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := power.IPR(curve); err != nil {
			b.Fatal(err)
		}
		if _, err := power.LDR(curve); err != nil {
			b.Fatal(err)
		}
		if _, err := power.ProportionalityGap(curve); err != nil {
			b.Fatal(err)
		}
	}
}
