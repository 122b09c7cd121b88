// Package sim is the simulator behind the paper's evaluation. It replays a
// load trace against four scenarios:
//
//   - UpperBound Global: a homogeneous data center sized once for the
//     global peak (4 Big machines for the paper's trace), always on — the
//     classical over-provisioned design;
//   - UpperBound PerDay: a homogeneous data center re-dimensioned each day
//     for that day's peak — coarse-grain capacity planning;
//   - BML: the heterogeneous infrastructure driven by the proactive
//     reconfiguration scheduler, including On/Off time and energy
//     overheads;
//   - LowerBound Theoretical: the unreachable bound where the ideal
//     combination is re-established every second at zero switching cost.
//
// Two engines execute the BML scenario, producing identical results. The
// interval integrator (integrator.go), the only production engine,
// iterates only on scheduler events — decisions that act (found by
// sched.DecideSpan's forward scan), transition completions and lock
// expiries, day boundaries, and, for per-bucket telemetry
// (RunBMLRecorded, recorder.go), bucket boundaries — and folds every raw
// trace sample inside a span through the fleet's closed-form dispatch
// arithmetic (cluster.DemandFold), so un-quantized 1 Hz traces simulate
// as cheaply per second as quantized ones. Its per-span cost is
// independent of fleet size: the cluster indexes pending transitions in a
// min-heap and integrates each pool's On fleet in closed form from its
// fill-first load shape, so thousand-node runs pay per span for the
// architectures and the machines mid-transition, not for the fleet.
//
// The static scenarios (both UpperBounds and the LowerBound) have no
// scheduler: their draw is a pure function of the instantaneous load and a
// per-day sizing, and the fold kernel of static.go integrates each day
// window run by run of equal samples at O(S) cost, all three scenarios in
// one walk under RunAll, bit-identical to the per-sample event loop it
// replaced (kept in static_reference_test.go as the reference).
//
// The legacy 1 Hz tick loop — one scheduler step and one joule-sample per
// simulated second, the paper's original integration scheme — survives
// behind WithTickEngine() as the differential-testing oracle ONLY, for
// BML and the static scenarios alike; no binary selects it, only tests and
// benchmarks do. The differential suites (differential_test.go,
// recorder_differential_test.go, integrator_differential_test.go) hold
// the integrator to the tick loop within ≤1e-6 J and exactly equal
// counters on randomized traces, fleets, fault schedules, and raw
// un-quantized World Cup segments.
//
// Results report total and per-day energy (the series of Figure 5) plus
// QoS and reconfiguration statistics. RunAll and SweepStream fan
// scenario × trace × fleet grids out across cores; SweepJob.FleetScale
// multiplies a job's offered load so grids can exercise thousand-node
// clusters. Beyond one process, grids shard deterministically across
// workers by canonical cell ID (shard.go) and stream each completed cell
// as a self-describing JSONL record (stream.go) that a coordinator
// (cmd/bmlsweep) merges, deduplicates, and validates for completeness —
// peak memory is one shard's working set, not the grid. Cells of the same
// sweep share per-trace predictor precomputation and fleet-scaled trace
// copies.
//
// RunBMLDecisions, which returns the scheduler's decision log beside the
// Result, exists for the live control plane's sim-versus-live replay test
// (internal/ctrl); no binary calls it.
package sim

import (
	"errors"
	"math"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Result is the outcome of one scenario run.
type Result struct {
	// Name identifies the scenario.
	Name string
	// DailyEnergy holds the energy of each complete day (index 0 = day 1).
	DailyEnergy []power.Joules
	// TotalEnergy is the energy over the whole trace, including any
	// trailing partial day.
	TotalEnergy power.Joules
	// QoS aggregates served-versus-offered statistics.
	QoS qos.Tracker
	// Decisions, SwitchOns, SwitchOffs describe scheduler activity (zero
	// for the static scenarios). Skipped counts reconfigurations rejected
	// by the overhead-aware policy; MigrationEnergy is the application-
	// level migration overhead charged (both zero unless enabled).
	Decisions       int
	SwitchOns       int
	SwitchOffs      int
	Skipped         int
	MigrationEnergy power.Joules
	// Breakdown splits the energy into transition/idle/dynamic components
	// (zero-valued for the LowerBound scenario, whose solver reports only
	// total optimal power).
	Breakdown power.Breakdown

	// Neumaier compensation terms for the energy accumulators. The tick
	// engine performs one addition per simulated second while the
	// integrator performs one per span; compensated summation keeps both
	// orderings exact to well below the 1e-6 J differential-test bound
	// even on month-long traces. finalize folds them into the totals.
	totalComp float64
	dailyComp []float64
}

// newResult allocates a Result with day buckets and compensation terms.
func newResult(name string, days int) *Result {
	return &Result{
		Name:        name,
		DailyEnergy: make([]power.Joules, days),
		dailyComp:   make([]float64, days),
	}
}

// addEnergy accumulates e into the run totals, crediting the day that
// second t belongs to.
func (r *Result) addEnergy(t int, e power.Joules) {
	var s float64
	s, r.totalComp = power.NeumaierAdd(float64(r.TotalEnergy), r.totalComp, float64(e))
	r.TotalEnergy = power.Joules(s)
	if d := t / trace.SecondsPerDay; d < len(r.DailyEnergy) {
		if r.dailyComp == nil {
			r.dailyComp = make([]float64, len(r.DailyEnergy))
		}
		s, r.dailyComp[d] = power.NeumaierAdd(float64(r.DailyEnergy[d]), r.dailyComp[d], float64(e))
		r.DailyEnergy[d] = power.Joules(s)
	}
}

// finalize folds the summation compensation terms into the reported
// energies. Run functions call it once before returning.
func (r *Result) finalize() {
	r.TotalEnergy += power.Joules(r.totalComp)
	r.totalComp = 0
	for d := range r.DailyEnergy {
		r.DailyEnergy[d] += power.Joules(r.dailyComp[d])
		r.dailyComp[d] = 0
	}
}

// BMLConfig parameterizes the BML scenario.
type BMLConfig struct {
	// WindowFactor sizes the look-ahead window as a multiple of the
	// longest On duration; the paper uses 2. Zero means 2.
	WindowFactor float64
	// Predictor overrides the paper's look-ahead-max predictor when
	// non-nil (used by the prediction ablations).
	Predictor predict.Predictor
	// PredictorSpec declaratively selects the predictor kind when
	// Predictor is nil: "lookahead" (or empty — the paper default),
	// "oracle", "lastvalue", "ewma[:alpha]", "pattern". Grid cells need a
	// spec rather than an instance because every fleet-scaled cell builds
	// its predictor over its own scaled trace; a concrete Predictor is
	// bound to one trace.
	PredictorSpec string
	// Headroom scales predictions (>= 1); zero means 1 (or the
	// application class default when App is set).
	Headroom float64
	// Inventory optionally caps machines per architecture.
	Inventory map[string]int
	// App optionally supplies the §III application characterization
	// (malleability bounds, migration overheads, class headroom).
	App *app.Spec
	// BootFaultProb injects boot failures with this probability (0 = none):
	// a failed boot consumes its full energy but lands back in Off, and the
	// scheduler must converge anyway.
	BootFaultProb float64
	// FaultSeed makes boot-fault injection deterministic.
	FaultSeed int64
	// RepeatSeed distinguishes repeated runs of one configuration as
	// distinct grid cells: a nonzero seed enters the canonical config
	// serialization (and therefore the v2 cell ID) and is folded into
	// the boot-fault schedule seed, so each repeat of a fault-injecting
	// config replays its own seeded fault schedule while staying
	// individually cacheable. Zero (the default) leaves cell identity
	// untouched. See RepeatConfigs for the axis expansion.
	RepeatSeed int64
	// OverheadAware enables the future-work amortization policy on
	// reconfiguration decisions.
	OverheadAware bool
	// AmortizeSeconds is the amortization horizon (0 = 378 s).
	AmortizeSeconds float64
}

// LiveRig builds the decision components of a BML run — node-count
// lookup, predictor, and effective headroom — exactly as the simulator's
// scenario would build them. The live controller (internal/ctrl) plans
// from these so that sim-versus-live differential tests compare two
// consumers of the identical rig, not two reimplementations of it.
func LiveRig(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig) (bml.Lookup, predict.Predictor, float64, error) {
	if tr == nil || planner == nil {
		return nil, nil, 0, errors.New("sim: nil trace or planner")
	}
	wf := cfg.WindowFactor
	if wf == 0 {
		wf = sched.DefaultWindowFactor
	}
	window, err := sched.Window(planner.Candidates(), wf)
	if err != nil {
		return nil, nil, 0, err
	}
	pred := cfg.Predictor
	if pred == nil {
		pred, err = predictorFromSpec(tr, cfg.PredictorSpec, window)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	if pred == nil {
		pred, err = predict.NewLookaheadMax(tr, window)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	headroom := cfg.Headroom
	if headroom == 0 {
		if cfg.App != nil {
			headroom = cfg.App.EffectiveHeadroom()
		} else {
			headroom = 1
		}
	}
	return planner.Lookup(tr.Max() * headroom), pred, headroom, nil
}

// buildBMLRig assembles the scheduler and cluster for a BML run. The
// decision log is kept whole when wantLog is set and not built otherwise.
func buildBMLRig(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, wantLog bool) (*sched.Scheduler, *cluster.Cluster, error) {
	table, pred, headroom, err := LiveRig(tr, planner, cfg)
	if err != nil {
		return nil, nil, err
	}
	var clOpts []cluster.Option
	if cfg.Inventory != nil {
		clOpts = append(clOpts, cluster.WithInventory(cfg.Inventory))
	}
	if cfg.BootFaultProb > 0 {
		// The repeat seed offsets the fault schedule so each repeat cell
		// observes independent (but individually reproducible) failures.
		clOpts = append(clOpts, cluster.WithBootFaults(cfg.BootFaultProb, cfg.FaultSeed+cfg.RepeatSeed))
	}
	cl, err := cluster.New(planner.Candidates(), clOpts...)
	if err != nil {
		return nil, nil, err
	}
	logCap := -1
	if wantLog {
		logCap = math.MaxInt
	}
	sc, err := sched.New(sched.Config{
		Table:           table,
		Predictor:       pred,
		Cluster:         cl,
		Headroom:        headroom,
		App:             cfg.App,
		OverheadAware:   cfg.OverheadAware,
		AmortizeSeconds: cfg.AmortizeSeconds,
		DecisionLogCap:  logCap,
	})
	if err != nil {
		return nil, nil, err
	}
	return sc, cl, nil
}

// RunBML simulates the heterogeneous infrastructure under the proactive
// scheduler over tr, using the planner's candidate classes and combination
// table. It runs on the interval integrator unless WithTickEngine selects
// the 1 Hz oracle.
func RunBML(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts ...Option) (*Result, error) {
	res, _, err := runBML(tr, planner, cfg, false, buildOptions(opts), 0, nil)
	return res, err
}

// RunBMLDecisions runs the BML scenario like RunBML and additionally
// returns the scheduler's complete decision log (changed-target decisions
// with their simulation times), one entry per Result.Decisions. The
// differential replay harness (internal/ctrl) compares this sequence
// against the live controller's.
func RunBMLDecisions(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts ...Option) (*Result, []sched.Decision, error) {
	res, sc, err := runBML(tr, planner, cfg, true, buildOptions(opts), 0, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, sc.DecisionLog(), nil
}

// runBML builds the rig and runs the BML scenario on the engine o selects.
// bucket and obs are the integrator's span limits and span observer (see
// runBMLIntegrator); the tick loop reports every second to obs.
func runBML(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, wantLog bool, o options, bucket int, obs spanObserver) (*Result, *sched.Scheduler, error) {
	if tr == nil || planner == nil {
		return nil, nil, errors.New("sim: nil trace or planner")
	}
	sc, cl, err := buildBMLRig(tr, planner, cfg, wantLog)
	if err != nil {
		return nil, nil, err
	}
	res := newResult("Big-Medium-Little", tr.Days())
	if o.tick {
		err = runBMLTick(tr, sc, res, obs)
	} else {
		err = runBMLIntegrator(tr, sc, res, bucket, obs)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Decisions = sc.Decisions()
	res.SwitchOns = sc.SwitchOns()
	res.SwitchOffs = sc.SwitchOffs()
	res.Skipped = sc.Skipped()
	res.MigrationEnergy = sc.MigrationEnergy()
	res.Breakdown = cl.Breakdown()
	res.Breakdown.Transition += res.MigrationEnergy
	res.finalize()
	return res, sc, nil
}

// RunUpperBoundGlobal simulates the over-provisioned homogeneous data
// center: n = ceil(globalPeak / big.MaxPerf) machines of the Big class,
// always on, load packed onto as few nodes as possible.
func RunUpperBoundGlobal(tr *trace.Trace, big profile.Arch, opts ...Option) (*Result, error) {
	return runUpperBound(tr, big, slotGlobal, buildOptions(opts))
}

// globalSizing sizes UpperBound Global: ceil(globalPeak / big.MaxPerf)
// machines every day, and at least one.
func globalSizing(tr *trace.Trace, big profile.Arch) func(day int) int {
	n := big.NodesFor(tr.Max())
	if n == 0 {
		n = 1 // even an idle data center keeps one machine
	}
	return func(int) int { return n }
}

// RunUpperBoundPerDay simulates coarse-grain capacity planning: each day
// runs ceil(dayPeak / big.MaxPerf) always-on Big machines. Transition
// costs between days are not charged, which only makes this upper bound
// more favorable.
func RunUpperBoundPerDay(tr *trace.Trace, big profile.Arch, opts ...Option) (*Result, error) {
	return runUpperBound(tr, big, slotPerDay, buildOptions(opts))
}

// perDaySizing sizes UpperBound PerDay from the trace's daily peaks:
// ceil(dayPeak / big.MaxPerf) machines for each complete day, and at
// least one.
func perDaySizing(peaks []float64, big profile.Arch) func(day int) int {
	return func(day int) int {
		n := 1
		if day < len(peaks) {
			if k := big.NodesFor(peaks[day]); k > n {
				n = k
			}
		} else if len(peaks) > 0 {
			// Trailing partial day reuses the last complete day's sizing.
			if k := big.NodesFor(peaks[len(peaks)-1]); k > n {
				n = k
			}
		}
		return n
	}
}

// runUpperBound runs the UpperBound scenario of slot (slotGlobal or
// slotPerDay) on the engine o selects.
func runUpperBound(tr *trace.Trace, big profile.Arch, slot int, o options) (*Result, error) {
	if tr == nil {
		return nil, errors.New("sim: nil trace")
	}
	if err := big.Validate(); err != nil {
		return nil, err
	}
	if !o.tick {
		return runStaticSlot(tr, big, nil, slot)
	}
	sizeForDay := globalSizing(tr, big)
	if slot == slotPerDay {
		sizeForDay = perDaySizing(tr.DailyPeaks(), big)
	}
	// The 1 Hz oracle: load packed fill-first, shortfall (possible only on
	// PerDay's trailing partial-day fallback) recorded as QoS loss.
	res := newResult(staticNames[slot], tr.Days())
	maxPower, idlePower := float64(big.MaxPower), float64(big.IdlePower)
	for t := 0; t < tr.Len(); t++ {
		day := t / trace.SecondsPerDay
		n := sizeForDay(day)
		demand := tr.At(t)
		served := math.Min(demand, float64(n)*big.MaxPerf)
		total := packLoad(served, big.MaxPerf, maxPower, idlePower).draw(n, maxPower, idlePower)
		idle := float64(n) * idlePower
		res.Breakdown.Idle += power.Joules(idle)
		res.Breakdown.Dynamic += power.Joules(total - idle)
		res.addEnergy(t, power.Joules(total))
		if err := res.QoS.Observe(demand, served, 1); err != nil {
			return nil, err
		}
	}
	res.finalize()
	return res, nil
}

// packing is load packed fill-first onto as few always-on nodes of one
// architecture as possible — maxPerf peak rate per node, drawing maxPower
// at peak and idlePower idle — before the fleet size is known: the part of
// a homogeneous fleet's draw that does not depend on it. draw finishes the
// draw for n nodes, so packLoad(load, …).draw(n, …) is the draw of n nodes
// serving load, and the static fold kernel packs each run once for both
// UpperBound fleets. Both take scalars rather than a profile.Arch so that
// they inline into the hot loops; the partially loaded node draws what
// profile.Arch.PowerAt would, by the same expression.
type packing struct {
	full       int     // nodes at their peak rate
	p          float64 // their draw
	partial    float64 // the draw of the partially loaded node
	hasPartial bool    // whether one node is partially loaded
}

// packLoad packs load onto nodes of maxPerf peak rate.
func packLoad(load, maxPerf, maxPower, idlePower float64) packing {
	full := int(load / maxPerf)
	k := packing{full: full, p: float64(full) * maxPower}
	rem := load - float64(full)*maxPerf
	if rem > 1e-12 {
		k.hasPartial = true
		if rem >= maxPerf {
			k.partial = maxPower
		} else {
			k.partial = float64(idlePower + (rem/maxPerf)*(maxPower-idlePower))
		}
	}
	return k
}

// draw returns the draw of n nodes serving the packed load: a load beyond
// n full nodes keeps all n at peak, and the nodes it leaves unused idle.
func (k packing) draw(n int, maxPower, idlePower float64) float64 {
	p, used := k.p, k.full
	if used > n {
		p, used = float64(n)*maxPower, n
	} else if k.hasPartial && used < n {
		p += k.partial
		used++
	}
	return p + float64(n-used)*idlePower
}

// RunLowerBound integrates the theoretical minimum: every second the ideal
// (exact) combination for the instantaneous load, with no switching latency
// or energy — the unreachable bound of Figure 5.
func RunLowerBound(tr *trace.Trace, candidates []profile.Arch, opts ...Option) (*Result, error) {
	if tr == nil {
		return nil, errors.New("sim: nil trace")
	}
	solver, err := bml.NewExactSolver(candidates, tr.Max(), 1)
	if err != nil {
		return nil, err
	}
	return runLowerBound(tr, solver, opts...)
}

// runLowerBound integrates the LowerBound scenario with a solver covering
// [0, tr.Max()]: a fresh one, or a view of the planner's shared table
// (bml.Planner.Exact).
func runLowerBound(tr *trace.Trace, solver *bml.ExactSolver, opts ...Option) (*Result, error) {
	if !buildOptions(opts).tick {
		return runStaticSlot(tr, profile.Arch{}, solver, slotLower)
	}
	res := newResult(staticNames[slotLower], tr.Days())
	for t := 0; t < tr.Len(); t++ {
		demand := tr.At(t)
		res.addEnergy(t, power.Joules(float64(solver.PowerAt(demand))))
		if err := res.QoS.Observe(demand, demand, 1); err != nil {
			return nil, err
		}
	}
	res.finalize()
	return res, nil
}
