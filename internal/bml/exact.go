package bml

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/profile"
)

// This file implements the exact minimum-power combination table. It is
// used in three places:
//
//   - Step 3 pruning (PruneNonCrossing) needs "the optimal combination of
//     the smaller architectures" as a comparison baseline;
//   - Step 4 threshold computation compares each class against optimal
//     mixed combinations of all smaller classes;
//   - the evaluation's LowerBound Theoretical scenario dimensions the data
//     center every second with the ideal combination.
//
// Because every per-node power profile is linear in load, any assignment of
// a target rate across a multiset of nodes can be "consolidated": shifting
// load between two partially loaded nodes changes total power linearly, so
// an extreme point (one of the two becomes full or empty) is never worse,
// and an empty node can be removed (saving its idle power). The optimum is
// therefore always attained by a multiset of fully loaded nodes plus at
// most one partially loaded node. The dynamic program below exploits this:
//
//	minFull[k] = cheapest way to serve exactly k rate units with only
//	             fully loaded nodes (unbounded knapsack);
//	cost[k]    = min(minFull[k],
//	             min over arch a and partial load x in [1, size_a):
//	                 minFull[k-x] + PowerAt_a(x))
//
// The inner minimum over x is a min-plus convolution with a linear function
// of x, computed in O(1) amortized per k with a monotone deque.

// exactTable holds the DP results on a fixed rate grid.
type exactTable struct {
	step    float64
	archs   []profile.Arch
	sizes   []int     // arch max perf in grid units
	cost    []float64 // optimal power to serve k units; +Inf if k == 0 -> 0
	fullArc []int     // knapsack parent: arch used at k (-1 none)
	partArc []int     // partial arch chosen at k (-1 if pure full)
	partX   []int     // partial load in units when partArc >= 0
}

// newExactTable builds the DP up to maxRate (inclusive) on the given grid
// step. Architectures with MaxPerf smaller than one grid unit are rejected
// by construction elsewhere (profiles validate MaxPerf > 0; callers choose
// step <= smallest MaxPerf).
func newExactTable(archs []profile.Arch, maxRate, step float64) *exactTable {
	n := gridIndex(maxRate, step, math.MaxInt)
	t := &exactTable{
		step:    step,
		archs:   append([]profile.Arch(nil), archs...),
		sizes:   make([]int, len(archs)),
		cost:    make([]float64, n+1),
		fullArc: make([]int, n+1),
		partArc: make([]int, n+1),
		partX:   make([]int, n+1),
	}
	for i, a := range archs {
		sz := int(math.Round(a.MaxPerf / step))
		if sz < 1 {
			sz = 1
		}
		t.sizes[i] = sz
	}
	// Unbounded knapsack for minFull: the optimal power using fully loaded
	// nodes only.
	full := make([]float64, n+1)
	t.fullArc[0] = -1
	for k := 1; k <= n; k++ {
		full[k] = math.Inf(1)
		t.fullArc[k] = -1
		for i := range archs {
			if sz := t.sizes[i]; sz <= k {
				if c := full[k-sz] + float64(archs[i].MaxPower); c < full[k] {
					full[k] = c
					t.fullArc[k] = i
				}
			}
		}
	}
	// cost[k]: start from pure-full, then improve with one partial node per
	// architecture using a sliding-window minimum over
	// g(j) = full[j] - slope_i * j for j in [k-size_i+1, k-1]
	// (partial load x = k - j in [1, size_i-1]).
	copy(t.cost, full)
	for k := range t.partArc {
		t.partArc[k] = -1
	}
	for i, a := range archs {
		sz := t.sizes[i]
		if sz < 2 {
			continue // a 1-unit node is always "full"; no partial loads exist
		}
		slope := (float64(a.MaxPower) - float64(a.IdlePower)) / float64(sz)
		idle := float64(a.IdlePower)
		// Monotone deque over indices j with key g(j) = full[j] - slope*j.
		g := func(j int) float64 { return full[j] - slope*float64(j) }
		var deque []int
		push := func(j int) {
			if math.IsInf(full[j], 1) {
				return
			}
			for len(deque) > 0 && g(deque[len(deque)-1]) >= g(j) {
				deque = deque[:len(deque)-1]
			}
			deque = append(deque, j)
		}
		for k := 1; k <= n; k++ {
			push(k - 1)
			lo := k - sz + 1
			for len(deque) > 0 && deque[0] < lo {
				deque = deque[1:]
			}
			if len(deque) == 0 {
				continue
			}
			j := deque[0]
			c := idle + slope*float64(k) + g(j) // = full[j] + idle + slope*(k-j)
			if c < t.cost[k]-1e-12 {
				t.cost[k] = c
				t.partArc[k] = i
				t.partX[k] = k - j
			}
		}
	}
	return t
}

// units converts a rate to grid units, rounding up (a fractional residual
// demand still needs capacity for the full unit) and clamping to the table.
func (t *exactTable) units(rate float64) int {
	return gridIndex(rate, t.step, t.maxUnits())
}

// powerAt returns the optimal power for the given rate, or +Inf if the rate
// is not exactly coverable by the candidate set (which cannot happen when a
// 1-unit architecture is present). Fractional rates interpolate linearly
// between the adjacent grid optima: because every configuration's power is
// linear in its partial node's load, the true fractional optimum between
// two grid points is a concave lower envelope, and the chord never exceeds
// it — so interpolation keeps the value a valid lower bound.
func (t *exactTable) powerAt(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	exact := rate / t.step
	k1 := t.units(rate)
	k0 := k1 - 1
	if k0 < 0 || float64(k1) <= exact {
		return t.cost[k1]
	}
	frac := exact - float64(k0)
	c0, c1 := t.cost[k0], t.cost[k1]
	if math.IsInf(c0, 1) || math.IsInf(c1, 1) {
		return t.cost[k1]
	}
	return c0 + frac*(c1-c0)
}

// combinationAt reconstructs the optimal multiset for the given rate.
func (t *exactTable) combinationAt(rate float64) Combination {
	k := t.units(rate)
	c := newCombination(t.archs)
	if k == 0 {
		return c
	}
	if i := t.partArc[k]; i >= 0 {
		c.addPartial(t.archs[i], float64(t.partX[k])*t.step)
		k -= t.partX[k]
	}
	for k > 0 {
		i := t.fullArc[k]
		if i < 0 {
			// Rate not exactly coverable; report the infeasible remainder.
			c.Infeasible = float64(k) * t.step
			break
		}
		c.addFull(t.archs[i], 1)
		k -= t.sizes[i]
	}
	return c
}

// maxUnits returns the largest representable grid index.
func (t *exactTable) maxUnits() int { return len(t.cost) - 1 }

// ExactPower returns the theoretical minimum power to serve rate with the
// given candidate architectures (unlimited inventory), on a grid of the
// given step. This is the per-rate quantity the LowerBound Theoretical
// scenario integrates. For repeated queries build an ExactSolver instead.
func ExactPower(candidates []profile.Arch, rate, step float64) (power.Watts, error) {
	s, err := NewExactSolver(candidates, rate, step)
	if err != nil {
		return 0, err
	}
	return s.PowerAt(rate), nil
}

// ExactSolver exposes the DP table as a reusable solver for rates in
// [0, maxRate].
type ExactSolver struct {
	t *exactTable
}

// NewExactSolver validates inputs and precomputes the table.
func NewExactSolver(candidates []profile.Arch, maxRate, step float64) (*ExactSolver, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("bml: invalid rate step %v", step)
	}
	if maxRate < 0 || math.IsNaN(maxRate) || math.IsInf(maxRate, 0) {
		return nil, fmt.Errorf("bml: invalid max rate %v", maxRate)
	}
	for _, a := range candidates {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	return &ExactSolver{t: newExactTable(candidates, maxRate, step)}, nil
}

// Prefix returns the solver NewExactSolver would build over [0, maxRate]
// with s's candidates and step, as a view that shares s's tables. The DP is
// prefix-consistent (entry k depends only on entries below k), so the
// view's answers, clamping included, equal a fresh solver's. ok is false
// when maxRate is invalid or needs more grid units than s covers.
func (s *ExactSolver) Prefix(maxRate float64) (view *ExactSolver, ok bool) {
	n := gridIndex(maxRate, s.t.step, math.MaxInt)
	if !(maxRate >= 0) || n > s.t.maxUnits() {
		return nil, false
	}
	t := *s.t
	t.cost, t.fullArc, t.partArc, t.partX = t.cost[:n+1], t.fullArc[:n+1], t.partArc[:n+1], t.partX[:n+1]
	return &ExactSolver{t: &t}, true
}

// PowerAt returns the optimal power for rate (clamped to the precomputed
// range). Infinite results (rate not coverable) are reported as +Inf watts.
func (s *ExactSolver) PowerAt(rate float64) power.Watts {
	return power.Watts(s.t.powerAt(rate))
}

// CombinationAt reconstructs the optimal machine multiset for rate.
func (s *ExactSolver) CombinationAt(rate float64) Combination {
	return s.t.combinationAt(rate)
}

// MaxRate returns the largest rate the solver covers.
func (s *ExactSolver) MaxRate() float64 {
	return float64(s.t.maxUnits()) * s.t.step
}
