package bml

import (
	"math"

	"repro/internal/profile"
)

// Lookup is the rate→node-count interface the scheduler consumes.
type Lookup interface {
	// Candidates returns the architectures Counts reports on, in
	// Big→Little order. The slice is shared: callers must not modify it.
	Candidates() []profile.Arch
	// Counts writes into dst, and returns, the node count of each
	// candidate in the ideal combination for rate, rounding demand up to
	// the planner's grid and clamping to the lookup's maximum rate. It
	// allocates nothing when cap(dst) holds every candidate, and it is
	// safe for concurrent use.
	Counts(rate float64, dst []int) []int
}

// Lookup returns the rate→node-count lookup over [0, maxRate]. It keeps
// no state of its own: every Counts call places the clamped rate afresh,
// through the same placement as Combination. Building one is O(1).
func (p *Planner) Lookup(maxRate float64) Lookup {
	return &planLookup{p: p, maxIdx: gridIndex(maxRate, p.step, math.MaxInt)}
}

type planLookup struct {
	p      *Planner
	maxIdx int
}

func (l *planLookup) Candidates() []profile.Arch { return l.p.candidates }

func (l *planLookup) Counts(rate float64, dst []int) []int {
	n := len(l.p.candidates)
	if cap(dst) < n {
		dst = make([]int, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	k := gridIndex(rate, l.p.step, l.maxIdx)
	if i, load, _ := l.p.place(float64(k)*l.p.step, dst); load > 0 {
		dst[i]++
	}
	return dst
}

// gridIndex rounds x up to whole grid units of size step and clamps the
// result to [0, max] in float space, before any conversion to int: NaN and
// x ≤ 0 give 0, and anything at or past max units, +Inf included, gives
// max.
func gridIndex(x, step float64, max int) int {
	u := math.Ceil(x/step - 1e-9)
	switch {
	case !(u > 0):
		return 0
	case u >= float64(max):
		return max
	}
	return int(u)
}
