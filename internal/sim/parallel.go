package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ScenarioSet bundles the four §V-C scenario results of one evaluation.
type ScenarioSet struct {
	UpperBoundGlobal *Result
	UpperBoundPerDay *Result
	BML              *Result
	LowerBound       *Result
}

// Scenario names one of the four §V-C scenarios for sweep grids.
type Scenario string

// The four scenarios a SweepJob can run.
const (
	ScenarioUpperBoundGlobal Scenario = "ub-global"
	ScenarioUpperBoundPerDay Scenario = "ub-perday"
	ScenarioBML              Scenario = "bml"
	ScenarioLowerBound       Scenario = "lowerbound"
)

// SweepJob is one cell of a scenario × trace × configuration grid.
type SweepJob struct {
	// Name labels the cell in reports (e.g. "bml/day3/headroom=1.2").
	Name string
	// Trace is the load trace to replay.
	Trace *trace.Trace
	// TraceName labels the cell's point on a multi-trace grid's trace
	// axis (empty for single-trace grids — the trace fingerprint in the
	// cell ID carries identity either way).
	TraceName string
	// ConfigName labels the cell's point on the configuration axis
	// (empty for config-independent cells — the bound scenarios — and
	// "default" for the zero BMLConfig; the config fingerprint in the
	// cell ID carries identity either way).
	ConfigName string
	// Planner supplies candidate classes and the combination lookup. The
	// homogeneous scenarios use Planner.Big(); LowerBound uses
	// Planner.Candidates().
	Planner *bml.Planner
	// Scenario selects which of the four runs to execute.
	Scenario Scenario
	// BML configures the BML scenario (ignored by the other three).
	BML BMLConfig
	// FleetScale multiplies the job's offered load before the run, scaling
	// the fleet the scheduler provisions by roughly the same factor —
	// the knob that turns a scenario × trace grid into a scenario × trace
	// × fleet grid exercising thousand-node clusters. Zero or one leaves
	// the trace unchanged. Large scales grow the LowerBound scenario's
	// exact DP to O(scale) memory, built once per sweep (sweepCache); the
	// BML scenario stays cheap thanks to the cluster's transition heap and
	// the planner's bounded combination memo (bml.Planner.Lookup).
	FleetScale float64
	// Options forwards engine options (e.g. WithTickEngine) to the run.
	Options []Option
}

// sweepCache shares per-trace and per-planner work across the cells of
// one sweep or shard: fleet-scaled trace copies, the BML predictors'
// precomputation (one pass over the trace; the look-ahead predictor keeps
// only its runs of equal predictions, about 1.4 MB for 92 days), and one
// LowerBound exact solver per planner (the DP for a peak R is a prefix of
// any larger one). BML cells need no entry for their combination lookups:
// they read the planner's own memo.
// Computation happens under the lock so concurrent cells wait for one
// precomputation instead of racing to repeat it.
type sweepCache struct {
	mu      sync.Mutex
	scaled  map[scaleKey]*trace.Trace
	preds   map[predKey]predict.Predictor
	solvers map[*bml.Planner]*bml.ExactSolver
}

type scaleKey struct {
	tr *trace.Trace
	f  float64
}

type predKey struct {
	tr     *trace.Trace
	window int
	spec   string // normalized PredictorSpec ("" = look-ahead-max)
}

func newSweepCache() *sweepCache {
	return &sweepCache{
		scaled:  map[scaleKey]*trace.Trace{},
		preds:   map[predKey]predict.Predictor{},
		solvers: map[*bml.Planner]*bml.ExactSolver{},
	}
}

// scaledTrace returns tr scaled by f, computing each distinct (trace,
// factor) once per cache lifetime.
func (c *sweepCache) scaledTrace(tr *trace.Trace, f float64) (*trace.Trace, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := scaleKey{tr: tr, f: f}
	if s, ok := c.scaled[key]; ok {
		return s, nil
	}
	s, err := tr.Scale(f)
	if err != nil {
		return nil, err
	}
	c.scaled[key] = s
	return s, nil
}

// predictor returns the predictor a cell's config selects for (tr, window)
// — the paper's look-ahead-max by default, or whatever PredictorSpec names
// — sharing each predictor's one-pass precomputation across every cell of
// the sweep that replays the same trace under the same spec. Predictors
// are immutable after construction, so sharing one across concurrent runs
// is race-free. The builder is exactly what buildBMLRig would run, so
// cached and uncached runs are identical.
func (c *sweepCache) predictor(tr *trace.Trace, window int, spec string) (predict.Predictor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := predKey{tr: tr, window: window, spec: spec}
	if p, ok := c.preds[key]; ok {
		return p, nil
	}
	p, err := predictorFromSpec(tr, spec, window)
	if p == nil && err == nil {
		p, err = predict.NewLookaheadMax(tr, window)
	}
	if err != nil {
		return nil, err
	}
	c.preds[key] = p
	return p, nil
}

// exactSolver returns the exact solver RunLowerBound would build for a
// trace peaking at maxRate over the planner's candidates: a prefix view of
// the sweep's one solver for that planner, which is rebuilt, larger, only
// when a cell needs more grid units than it covers.
func (c *sweepCache) exactSolver(p *bml.Planner, maxRate float64) (*bml.ExactSolver, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.solvers[p]; s != nil {
		if view, ok := s.Prefix(maxRate); ok {
			return view, nil
		}
	}
	s, err := bml.NewExactSolver(p.Candidates(), maxRate, 1)
	if err != nil {
		return nil, err
	}
	c.solvers[p] = s
	return s, nil
}

// run executes the job's scenario, consulting the sweep's cache for the
// fleet-scaled trace, the BML predictor and the LowerBound's exact solver.
// The cached predictor is exactly what buildBMLRig would construct
// (predict.NewLookaheadMax over the scaled trace at the scheduler's
// window) and the cached solver answers exactly as RunLowerBound's own,
// so a cell's result does not depend on the cells it shares a sweep with.
func (j SweepJob) run(cache *sweepCache) (*Result, error) {
	if j.Trace == nil || j.Planner == nil {
		return nil, errors.New("sim: sweep job needs a trace and a planner")
	}
	tr := j.Trace
	if j.FleetScale != 0 && j.FleetScale != 1 {
		var err error
		if tr, err = cache.scaledTrace(j.Trace, j.FleetScale); err != nil {
			return nil, fmt.Errorf("sim: fleet scale: %w", err)
		}
	}
	switch j.Scenario {
	case ScenarioUpperBoundGlobal:
		return RunUpperBoundGlobal(tr, j.Planner.Big(), j.Options...)
	case ScenarioUpperBoundPerDay:
		return RunUpperBoundPerDay(tr, j.Planner.Big(), j.Options...)
	case ScenarioBML:
		cfg := j.BML
		if cfg.Predictor == nil {
			wf := cfg.WindowFactor
			if wf == 0 {
				wf = sched.DefaultWindowFactor
			}
			window, err := sched.Window(j.Planner.Candidates(), wf)
			if err != nil {
				return nil, err
			}
			pred, err := cache.predictor(tr, window, cfg.PredictorSpec)
			if err != nil {
				return nil, err
			}
			cfg.Predictor = pred
		}
		return RunBML(tr, j.Planner, cfg, j.Options...)
	case ScenarioLowerBound:
		solver, err := cache.exactSolver(j.Planner, tr.Max())
		if err != nil {
			return nil, err
		}
		return runLowerBound(tr, solver, j.Options...)
	default:
		return nil, fmt.Errorf("sim: unknown scenario %q", j.Scenario)
	}
}

// SweepResult pairs a job with its outcome. Index is the job's position in
// the grid slice handed to SweepStream; Wall is the cell's wall-clock cost
// (streamed into CellRecord telemetry).
type SweepResult struct {
	Job    SweepJob
	Index  int
	Result *Result
	Err    error
	Wall   time.Duration
}

// RunAll executes all four scenarios concurrently, as each is independent.
// With a core per scenario the evaluation's wall time is the slowest
// scenario's; with fewer cores it approaches the scenarios' summed CPU
// time divided by the cores, so every scenario's cost counts, not only the
// slowest one's. It returns the first error in scenario order.
func RunAll(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts ...Option) (*ScenarioSet, error) {
	if tr == nil || planner == nil {
		return nil, errors.New("sim: nil trace or planner")
	}
	jobs := []SweepJob{
		{Name: "ub-global", Trace: tr, Planner: planner, Scenario: ScenarioUpperBoundGlobal, Options: opts},
		{Name: "ub-perday", Trace: tr, Planner: planner, Scenario: ScenarioUpperBoundPerDay, Options: opts},
		{Name: "bml", Trace: tr, Planner: planner, Scenario: ScenarioBML, BML: cfg, Options: opts},
		{Name: "lowerbound", Trace: tr, Planner: planner, Scenario: ScenarioLowerBound, Options: opts},
	}
	var set ScenarioSet
	slots := []**Result{&set.UpperBoundGlobal, &set.UpperBoundPerDay, &set.BML, &set.LowerBound}
	errs := make([]error, len(jobs))
	// The emit below cannot fail, so neither can the stream.
	_ = SweepStream(jobs, len(jobs), func(r SweepResult) error {
		*slots[r.Index] = r.Result
		errs[r.Index] = r.Err
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &set, nil
}
