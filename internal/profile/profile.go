// Package profile defines architecture energy/performance profiles — the
// output of the paper's Step 1 ("Characterizing Each Architecture Profile")
// and the input to every later planning step.
//
// A profile captures, for one machine class running the target application:
//
//   - MaxPerf: the maximum sustainable performance rate, in units of the
//     application metric (requests/s for the paper's stateless web server);
//   - IdlePower / MaxPower: average power at zero load and at MaxPerf;
//   - On/Off transition durations and energies.
//
// Power between idle and max is assumed linear in the performance rate, the
// paper's stated simplification. The package also provides the registry of
// the five machines the paper profiled (Table I) and the four illustrative
// architectures A–D used in Figures 1 and 2.
package profile

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/power"
)

// Arch is the complete Step 1 profile of one machine architecture.
type Arch struct {
	// Name is the architecture codename (e.g. "paravance").
	Name string
	// MaxPerf is the maximum performance rate in application-metric units
	// (requests/s in the paper's evaluation).
	MaxPerf float64
	// IdlePower is the average draw of an idle, powered-on node.
	IdlePower power.Watts
	// MaxPower is the average draw at MaxPerf.
	MaxPower power.Watts
	// OnDuration is the time to power on and become ready to serve.
	OnDuration time.Duration
	// OnEnergy is the energy consumed by one power-on transition.
	OnEnergy power.Joules
	// OffDuration is the time to cleanly power off.
	OffDuration time.Duration
	// OffEnergy is the energy consumed by one power-off transition.
	OffEnergy power.Joules
}

// Validation errors.
var (
	ErrEmptyName   = errors.New("profile: architecture name must be non-empty")
	ErrBadPerf     = errors.New("profile: MaxPerf must be positive and finite")
	ErrBadPower    = errors.New("profile: power values must satisfy 0 <= idle <= max, max > 0")
	ErrBadOverhead = errors.New("profile: transition durations and energies must be non-negative")
)

// Validate checks the internal consistency of a profile.
func (a Arch) Validate() error {
	if a.Name == "" {
		return ErrEmptyName
	}
	if a.MaxPerf <= 0 || math.IsNaN(a.MaxPerf) || math.IsInf(a.MaxPerf, 0) {
		return fmt.Errorf("%w (got %v for %q)", ErrBadPerf, a.MaxPerf, a.Name)
	}
	if !a.IdlePower.IsValid() || !a.MaxPower.IsValid() || a.MaxPower < a.IdlePower || a.MaxPower <= 0 {
		return fmt.Errorf("%w (idle=%v max=%v for %q)", ErrBadPower, a.IdlePower, a.MaxPower, a.Name)
	}
	if a.OnDuration < 0 || a.OffDuration < 0 || !a.OnEnergy.IsValid() || !a.OffEnergy.IsValid() {
		return fmt.Errorf("%w (%q)", ErrBadOverhead, a.Name)
	}
	return nil
}

// Model returns the linear power model of a single node of this
// architecture. It panics if the profile is invalid; call Validate first
// when handling untrusted input.
func (a Arch) Model() *power.LinearModel {
	m, err := power.NewLinearModel(a.IdlePower, a.MaxPower, a.MaxPerf)
	if err != nil {
		panic(fmt.Sprintf("profile: invalid profile %q: %v", a.Name, err))
	}
	return m
}

// PowerAt returns the draw of a single node sustaining perfRate, clamped to
// [0, MaxPerf].
func (a Arch) PowerAt(perfRate float64) power.Watts {
	if perfRate <= 0 {
		return a.IdlePower
	}
	if perfRate >= a.MaxPerf {
		return a.MaxPower
	}
	return a.IdlePower + power.Watts(perfRate/a.MaxPerf)*(a.MaxPower-a.IdlePower)
}

// NodesFor returns the minimum number of nodes of this architecture needed
// to sustain perfRate. Zero rate needs zero nodes.
func (a Arch) NodesFor(perfRate float64) int {
	if perfRate <= 0 {
		return 0
	}
	return int(math.Ceil(perfRate / a.MaxPerf))
}

// FleetPowerAt returns the draw of the cheapest homogeneous fleet of this
// architecture sustaining perfRate: full nodes at MaxPower plus one
// partially loaded node. This realizes the repeated piecewise profile the
// paper draws beyond (maxPerf, maxPower) in Figure 1.
func (a Arch) FleetPowerAt(perfRate float64) power.Watts {
	if perfRate <= 0 {
		return 0
	}
	full := int(perfRate / a.MaxPerf)
	rem := perfRate - float64(full)*a.MaxPerf
	p := power.Watts(float64(full)) * a.MaxPower
	if rem > 1e-12 {
		p += a.PowerAt(rem)
	}
	return p
}

// String summarizes the profile on one line in the Table I layout.
func (a Arch) String() string {
	return fmt.Sprintf("%s: maxPerf=%.0f idle=%.1fW max=%.1fW on=%s/%.1fJ off=%s/%.1fJ",
		a.Name, a.MaxPerf, float64(a.IdlePower), float64(a.MaxPower),
		a.OnDuration, float64(a.OnEnergy), a.OffDuration, float64(a.OffEnergy))
}

// CompareBigToLittle orders architectures Big→Little: decreasing MaxPerf,
// ties broken by ascending Name. It is the one definition of the order the
// planner's combination slots and the cluster's pools share, which is what
// lets a combination's node counts line up position by position with the
// cluster's per-architecture count vectors.
func CompareBigToLittle(a, b Arch) int {
	if c := cmp.Compare(b.MaxPerf, a.MaxPerf); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}
