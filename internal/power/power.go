// Package power provides the electrical quantities, power-model interfaces,
// energy integration, and energy-proportionality metrics used throughout the
// BML library.
//
// All simulation code in this repository works on two base quantities:
//
//   - Watts: instantaneous electrical power draw.
//   - Joules: integrated energy (1 J = 1 W·s).
//
// Energy over an interval of constant draw is the closed form p × Δt
// (IntervalEnergy); sums that must agree across engines integrating in
// different orders go through Neumaier-compensated accumulation
// (NeumaierAdd, Accumulator). The package also implements the two energy-proportionality metrics
// referenced by the paper's related-work section (Varsamopoulos et al.): IPR,
// the ideal-to-peak ratio, and LDR, the linear-deviation ratio.
package power

import (
	"errors"
	"fmt"
	"math"
)

// Watts is an instantaneous power draw. Negative values are invalid in every
// API of this package; constructors and integrators reject them.
type Watts float64

// Joules is an amount of energy. One Joule is one Watt sustained for one
// second.
type Joules float64

// KilowattHours converts energy to kWh, the unit most data-center cost
// models are expressed in.
func (j Joules) KilowattHours() float64 { return float64(j) / 3.6e6 }

// String renders the energy with an adaptive unit (J, kJ, MJ, GJ).
func (j Joules) String() string {
	v := float64(j)
	switch {
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("%.3f GJ", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3f MJ", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.3f kJ", v/1e3)
	default:
		return fmt.Sprintf("%.3f J", v)
	}
}

// String renders the power in Watts with three decimals.
func (w Watts) String() string { return fmt.Sprintf("%.3f W", float64(w)) }

// IsValid reports whether the power value is finite and non-negative. NaN
// fails both comparisons; two compares keep the check cheap enough for the
// simulator's per-sample loops.
func (w Watts) IsValid() bool {
	return w >= 0 && w <= math.MaxFloat64
}

// IsValid reports whether the energy value is finite and non-negative.
func (j Joules) IsValid() bool {
	return !math.IsNaN(float64(j)) && !math.IsInf(float64(j), 0) && j >= 0
}

// ErrNegativePower is returned when a negative or non-finite power sample is
// fed to a model or meter.
var ErrNegativePower = errors.New("power: negative or non-finite power sample")

// ErrNonMonotonicTime is returned when observations reach a meter out of
// time order.
var ErrNonMonotonicTime = errors.New("power: non-monotonic sample time")

// Model maps a performance rate (application metric, e.g. requests/s) to an
// instantaneous power draw. Implementations must be safe for concurrent use.
type Model interface {
	// PowerAt returns the power drawn when sustaining perfRate units of the
	// application metric. Implementations clamp perfRate to their valid
	// domain rather than erroring, because schedulers routinely probe
	// slightly out-of-range rates during threshold searches.
	PowerAt(perfRate float64) Watts
	// MaxPerf returns the largest sustainable performance rate.
	MaxPerf() float64
}

// LinearModel is the paper's Step 1 assumption: power grows linearly from
// Idle at rate 0 to Max at rate MaxRate. The paper notes (citing Rivoire et
// al.) that linearity may slightly under- or over-estimate real hardware but
// is precise enough for combination planning.
type LinearModel struct {
	Idle    Watts   // draw at performance rate 0 while powered on
	Max     Watts   // draw at MaxRate
	MaxRate float64 // maximum sustainable performance rate
}

// NewLinearModel validates and constructs a LinearModel. It requires
// 0 <= idle <= max and maxRate > 0.
func NewLinearModel(idle, max Watts, maxRate float64) (*LinearModel, error) {
	if !idle.IsValid() || !max.IsValid() {
		return nil, ErrNegativePower
	}
	if max < idle {
		return nil, fmt.Errorf("power: max power %v below idle power %v", max, idle)
	}
	if maxRate <= 0 || math.IsNaN(maxRate) || math.IsInf(maxRate, 0) {
		return nil, fmt.Errorf("power: invalid max rate %v", maxRate)
	}
	return &LinearModel{Idle: idle, Max: max, MaxRate: maxRate}, nil
}

// PowerAt implements Model. Rates below 0 clamp to 0; rates above MaxRate
// clamp to MaxRate.
func (m *LinearModel) PowerAt(perfRate float64) Watts {
	if perfRate <= 0 {
		return m.Idle
	}
	if perfRate >= m.MaxRate {
		return m.Max
	}
	frac := perfRate / m.MaxRate
	return m.Idle + Watts(frac)*(m.Max-m.Idle)
}

// MaxPerf implements Model.
func (m *LinearModel) MaxPerf() float64 { return m.MaxRate }

// IntervalEnergy returns the closed-form energy of a constant draw p held
// for dur seconds (p × Δt). It is the primitive the event-driven simulator
// integrates with: between events nothing in the model changes, so a whole
// interval collapses into one multiplication instead of one joule-sample
// per second.
func IntervalEnergy(p Watts, durSeconds float64) (Joules, error) {
	if !p.IsValid() {
		return 0, ErrNegativePower
	}
	if durSeconds < 0 || math.IsNaN(durSeconds) || math.IsInf(durSeconds, 0) {
		return 0, fmt.Errorf("power: invalid duration %v", durSeconds)
	}
	return Joules(float64(p) * durSeconds), nil
}

// NeumaierAdd performs one step of Neumaier's compensated summation:
// it adds v to sum, tracking the rounding error in comp. Folding comp into
// the final sum recovers the result to far better than plain accumulation
// — the primitive behind every energy accumulator that must agree across
// engines integrating in different orders (per second versus per event,
// per machine versus per pool).
func NeumaierAdd(sum, comp, v float64) (newSum, newComp float64) {
	t := sum + v
	if math.Abs(sum) >= math.Abs(v) {
		comp += (sum - t) + v
	} else {
		comp += (v - t) + sum
	}
	return t, comp
}

// Accumulator is a Neumaier-compensated running sum — NeumaierAdd packaged
// as a value so callers that keep several parallel compensated sums (demand
// and served integrals, per-pool idle and dynamic energy) don't have to
// thread (sum, comp) pairs by hand. The zero value is an empty sum.
type Accumulator struct {
	sum, comp float64
}

// Add folds v into the compensated sum.
func (a *Accumulator) Add(v float64) {
	a.sum, a.comp = NeumaierAdd(a.sum, a.comp, v)
}

// Sum returns the compensated total.
func (a *Accumulator) Sum() float64 { return a.sum + a.comp }

// Reset zeroes the accumulator.
func (a *Accumulator) Reset() { *a = Accumulator{} }
