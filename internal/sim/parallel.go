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
	// exact DP to O(scale) memory, 8 bytes per rate unit of the largest
	// scaled peak, held once per planner (bml.Planner.Exact) and shared by
	// every sweep, experiment and claim that uses the planner; the BML
	// scenario stays cheap thanks to the cluster's transition heap and the
	// planner's allocation-free node-count lookup (bml.Planner.Lookup).
	FleetScale float64
	// Options forwards engine options (e.g. WithTickEngine) to the run.
	Options []Option
}

// sweepCache shares per-trace and per-planner work across the cells of
// one sweep or shard: fleet-scaled trace copies, the BML predictors'
// precomputation (one pass over the trace; the look-ahead predictor keeps
// only its runs of equal predictions, about 1.4 MB for 92 days). Neither
// BML nor LowerBound cells need an entry for per-planner work: BML cells
// place each decision's counts afresh (bml.Planner.Lookup), and LowerBound
// cells read the planner's exact table (bml.Planner.Exact), which is built
// under the planner's lock, not this one. Computation happens under the lock so concurrent cells wait for
// one precomputation instead of racing to repeat it.
type sweepCache struct {
	mu     sync.Mutex
	scaled map[scaleKey]*trace.Trace
	preds  map[predKey]predict.Predictor
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
		scaled: map[scaleKey]*trace.Trace{},
		preds:  map[predKey]predict.Predictor{},
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

// run executes the job's scenario, consulting the sweep's cache for the
// fleet-scaled trace and the BML predictor, and the planner for the
// LowerBound's exact solver. The cached predictor is exactly what
// buildBMLRig would construct (predict.NewLookaheadMax over the scaled
// trace at the scheduler's window) and the planner's solver answers
// exactly as RunLowerBound's own, so a cell's result does not depend on
// the cells it shares a sweep with.
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
		solver, err := j.Planner.Exact(tr.Max())
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

// RunAll executes the four scenarios as two concurrent jobs: BML, and one
// walk of the trace that folds the three static scenarios together
// (foldStatic), so the evaluation's wall time is the slower of the two
// with two cores and their summed CPU time with one. The static walk
// finds each run of equal samples once for all three scenarios and folds
// their shared QoS integral once. Under WithTickEngine the four scenarios
// run as four jobs, each on its own oracle loop. RunAll returns the first
// error in scenario order.
func RunAll(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts ...Option) (*ScenarioSet, error) {
	if tr == nil || planner == nil {
		return nil, errors.New("sim: nil trace or planner")
	}
	if buildOptions(opts).tick {
		return runAllJobs(tr, planner, cfg, opts)
	}
	var bmlRes *Result
	var bmlErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		bmlRes, bmlErr = RunBML(tr, planner, cfg, opts...)
	}()

	// The static walk, with the preconditions the single-scenario runs
	// check: a valid Big class for the UpperBounds, the planner's exact
	// table for the LowerBound (as a LowerBound sweep cell reads it).
	big := planner.Big()
	bigErr := big.Validate()
	solver, exactErr := planner.Exact(tr.Max())
	res, errs := foldStatic(tr, big, solver, [staticSlots]bool{bigErr == nil, bigErr == nil, exactErr == nil})
	if bigErr != nil {
		errs[slotGlobal], errs[slotPerDay] = bigErr, bigErr
	}
	if exactErr != nil {
		errs[slotLower] = exactErr
	}
	<-done

	for _, err := range []error{errs[slotGlobal], errs[slotPerDay], bmlErr, errs[slotLower]} {
		if err != nil {
			return nil, err
		}
	}
	return &ScenarioSet{
		UpperBoundGlobal: res[slotGlobal],
		UpperBoundPerDay: res[slotPerDay],
		BML:              bmlRes,
		LowerBound:       res[slotLower],
	}, nil
}

// runAllJobs runs the four scenarios as four concurrent sweep jobs.
func runAllJobs(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts []Option) (*ScenarioSet, error) {
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
