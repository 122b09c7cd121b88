// Package predict provides the load predictors the BML scheduler consumes.
//
// The paper emulates prediction with a sliding look-ahead window: the
// predicted load at time t is the maximum trace value over the next W
// seconds, W being twice the longest power-on duration (378 s for the Table
// I machines, 2 × 189 s). That predictor is LookaheadMax. It stores the
// window maxima as runs of equal predictions (about 1.4 MB for the 92-day
// trace instead of 64 MB at one value per second) and reports where each
// run ends (PredictRun), so the scheduler's forward scan steps one run at
// a time. The package also implements the comparison predictors used by
// the ablation benchmarks and the paper's stated future work on prediction
// errors: an instantaneous oracle, a reactive last-value predictor, an
// exponentially weighted moving average over the past, and an
// error-injection wrapper.
package predict

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Predictor forecasts the load the infrastructure must be dimensioned for
// at second t. Implementations are deterministic functions of t so that
// simulations are reproducible.
type Predictor interface {
	// Predict returns the load estimate for second t.
	Predict(t int) float64
	// Name identifies the predictor in reports.
	Name() string
}

// runIndexShift sets the seconds per LookaheadMax index block (64).
const runIndexShift = 6

// LookaheadMax is the paper's predictor: the maximum of the next Window
// seconds of the trace (perfect knowledge within the window, none beyond).
//
// The window maxima are stored as runs of equal predictions — a start
// second and a value per run — which is far smaller than one value per
// second: a 378 s window over the 92-day World Cup trace holds the same
// value for about 109 s on average. A coarse index (the run holding each
// 64th second) keeps Predict O(1). The predictor is immutable, so one
// instance can serve concurrent simulations.
type LookaheadMax struct {
	window int
	name   string
	n      int
	starts []int32   // first second of each run; starts[0] == 0
	maxes  []float64 // prediction of each run
	index  []int32   // index[b]: the run holding second b<<runIndexShift
}

// NewLookaheadMax computes the sliding maxima of tr for the given window
// width in seconds, in one pass that allocates only the runs and their
// index, never an array of trace length.
func NewLookaheadMax(tr *trace.Trace, window int) (*LookaheadMax, error) {
	if window <= 0 {
		return nil, fmt.Errorf("predict: invalid window %d", window)
	}
	n := tr.Len()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("predict: trace of %d samples is too long for a look-ahead predictor", n)
	}
	p := &LookaheadMax{
		window: window,
		name:   fmt.Sprintf("lookahead-max(%ds)", window),
		n:      n,
		index:  make([]int32, (n+1<<runIndexShift-1)>>runIndexShift),
	}
	err := tr.SlidingMaxRuns(window, func(from, to int, max float64) {
		run := int32(len(p.starts))
		p.starts = append(p.starts, int32(from))
		p.maxes = append(p.maxes, max)
		for b := (from + 1<<runIndexShift - 1) >> runIndexShift; b<<runIndexShift < to; b++ {
			p.index[b] = run
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// run returns the index of the run holding second t, clamped to the trace.
func (p *LookaheadMax) run(t int) int {
	t = max(0, min(t, p.n-1))
	b := t >> runIndexShift
	// The run holding t lies between the runs holding the first seconds of
	// t's block and of the next block: binary-search the last start <= t.
	lo, hi := int(p.index[b]), len(p.starts)
	if b+1 < len(p.index) {
		hi = int(p.index[b+1]) + 1
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if int(p.starts[mid]) <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Predict implements Predictor. Out-of-range t clamps to the trace bounds.
func (p *LookaheadMax) Predict(t int) float64 { return p.maxes[p.run(t)] }

// PredictRun returns Predict(t) and the first second after t whose
// prediction has different bits: every second in [t, end) predicts exactly
// the returned value, so a caller can handle the whole run at once.
// Seconds before the trace predict its first second and seconds past it
// its last, so the last run never ends (end is math.MaxInt).
func (p *LookaheadMax) PredictRun(t int) (float64, int) {
	i := p.run(t)
	if i+1 == len(p.starts) {
		return p.maxes[i], math.MaxInt
	}
	return p.maxes[i], int(p.starts[i+1])
}

// Window returns the look-ahead width in seconds.
func (p *LookaheadMax) Window() int { return p.window }

// Name implements Predictor.
func (p *LookaheadMax) Name() string { return p.name }

// Oracle predicts the instantaneous true load — the predictor implied by
// the LowerBound Theoretical scenario, which re-dimensions every second
// with perfect knowledge.
type Oracle struct {
	tr *trace.Trace
}

// NewOracle wraps a trace.
func NewOracle(tr *trace.Trace) *Oracle { return &Oracle{tr: tr} }

// Predict implements Predictor.
func (p *Oracle) Predict(t int) float64 { return p.tr.At(t) }

// Name implements Predictor.
func (p *Oracle) Name() string { return "oracle" }

// LastValue is the naive reactive predictor: the forecast for t is the load
// observed one second earlier. It is the no-information baseline for the
// prediction ablation.
type LastValue struct {
	tr *trace.Trace
}

// NewLastValue wraps a trace.
func NewLastValue(tr *trace.Trace) *LastValue { return &LastValue{tr: tr} }

// Predict implements Predictor.
func (p *LastValue) Predict(t int) float64 { return p.tr.At(t - 1) }

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// EWMA forecasts with an exponentially weighted moving average of past
// samples: s(t) = α·x(t-1) + (1-α)·s(t-1). The average is precomputed for
// O(1) queries.
type EWMA struct {
	alpha  float64
	smooth []float64
}

// NewEWMA precomputes the average with smoothing factor alpha in (0, 1].
func NewEWMA(tr *trace.Trace, alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("predict: invalid EWMA alpha %v", alpha)
	}
	vals := tr.Values()
	smooth := make([]float64, len(vals))
	if len(vals) > 0 {
		smooth[0] = vals[0]
		for i := 1; i < len(vals); i++ {
			smooth[i] = alpha*vals[i-1] + (1-alpha)*smooth[i-1]
		}
	}
	return &EWMA{alpha: alpha, smooth: smooth}, nil
}

// Predict implements Predictor.
func (p *EWMA) Predict(t int) float64 {
	if len(p.smooth) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	if t >= len(p.smooth) {
		t = len(p.smooth) - 1
	}
	return p.smooth[t]
}

// Name implements Predictor.
func (p *EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", p.alpha) }

// ErrorInjector wraps a predictor with deterministic multiplicative
// Gaussian error — the instrument for the paper's future-work question
// ("investigate the impact of load prediction errors on reconfiguration
// decisions"). The error for a given second is a pure function of the seed
// and t, so repeated queries are consistent.
type ErrorInjector struct {
	inner Predictor
	rel   float64
	seed  int64
}

// NewErrorInjector wraps inner with relative 1-sigma error rel (e.g. 0.2
// for 20% error), clamped at 3 sigma and floored at zero.
func NewErrorInjector(inner Predictor, rel float64, seed int64) (*ErrorInjector, error) {
	if rel < 0 || rel > 1 || math.IsNaN(rel) {
		return nil, fmt.Errorf("predict: invalid error level %v", rel)
	}
	if inner == nil {
		return nil, fmt.Errorf("predict: nil inner predictor")
	}
	return &ErrorInjector{inner: inner, rel: rel, seed: seed}, nil
}

// Predict implements Predictor.
func (p *ErrorInjector) Predict(t int) float64 {
	v := p.inner.Predict(t)
	if p.rel == 0 {
		return v
	}
	// Derive a per-second deterministic error from (seed, t).
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	rng := rand.New(rand.NewSource(p.seed ^ (int64(t)+1)*mix))
	g := rng.NormFloat64()
	if g > 3 {
		g = 3
	} else if g < -3 {
		g = -3
	}
	out := v * (1 + g*p.rel)
	if out < 0 {
		out = 0
	}
	return out
}

// Name implements Predictor.
func (p *ErrorInjector) Name() string {
	return fmt.Sprintf("%s+err(%.0f%%)", p.inner.Name(), p.rel*100)
}
