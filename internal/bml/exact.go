package bml

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

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

// maxExactArchs is the largest candidate set the table accepts. Every
// grid unit costs one deque step per architecture, and no catalog comes
// near this many classes.
const maxExactArchs = math.MaxUint8

// maxExactUnits is the largest grid index the table accepts: past it the
// cost array alone would pass 16 GiB.
const maxExactUnits = math.MaxInt32

// exactTable holds the DP's optimal costs on a fixed rate grid, 8 bytes
// per grid unit. A table is never written after it is built.
type exactTable struct {
	step float64
	cost []float64 // optimal power to serve k units; +Inf if not coverable
}

// dpClass is one architecture's constants and its monotone deque over
// indices j with key g(j) = minFull[j] - slope*j, kept in a ring whose
// length is a power of two. The deque holds indices of one window, at most
// min(size, k) of them, so a ring longer than that never fills.
type dpClass struct {
	maxPower, idle, slope float64 // slope = (MaxPower-IdlePower)/size
	ring                  []dequeEntry
	head, n               int
}

type dequeEntry struct {
	j int
	g float64
}

// newExactTable builds the DP up to maxRate (inclusive) on the given grid
// step. Architectures with MaxPerf smaller than one grid unit are rejected
// by construction elsewhere (profiles validate MaxPerf > 0; callers choose
// step <= smallest MaxPerf).
func newExactTable(archs []profile.Arch, maxRate, step float64) (*exactTable, error) {
	return buildExactTable(archs, gridIndex(maxRate, step, math.MaxInt), step)
}

// buildExactTable computes entries 0..n. The loop is the DP with the unit
// k outermost:
//
//   - minFull[k] is an unbounded knapsack over the architectures, which
//     reads minFull back at most the largest size, kept in a ring;
//   - cost[k] starts from minFull[k] and is improved, architecture by
//     architecture in candidate order, by one partial node whose load
//     x = k - j lies in [1, size-1], through a sliding-window minimum over
//     g(j) for j in [k-size+1, k-1].
func buildExactTable(archs []profile.Arch, n int, step float64) (*exactTable, error) {
	if len(archs) > maxExactArchs {
		return nil, fmt.Errorf("bml: %d candidate architectures, the exact table holds at most %d", len(archs), maxExactArchs)
	}
	if n > maxExactUnits {
		return nil, fmt.Errorf("bml: exact table of %d grid units, past the limit of %d", n, maxExactUnits)
	}
	t := &exactTable{step: step, cost: make([]float64, n+1)}
	sizes := make([]int, len(archs))
	classes := make([]dpClass, len(archs))
	maxSz := 0
	for i, a := range archs {
		sz := int(math.Round(a.MaxPerf / step))
		if sz < 1 {
			sz = 1
		}
		sizes[i] = sz
		maxSz = max(maxSz, sz)
		classes[i] = dpClass{
			maxPower: float64(a.MaxPower),
			idle:     float64(a.IdlePower),
			slope:    (float64(a.MaxPower) - float64(a.IdlePower)) / float64(sz),
			ring:     make([]dequeEntry, ringLen(min(sz, n))),
		}
	}
	full := make([]float64, ringLen(min(maxSz, n))) // minFull[k] at k&mask
	mask := len(full) - 1
	for k := 1; k <= n; k++ {
		fk := math.Inf(1)
		for i := range classes {
			if sz := sizes[i]; sz <= k {
				if c := full[(k-sz)&mask] + classes[i].maxPower; c < fk {
					fk = c
				}
			}
		}
		full[k&mask] = fk
		ck := fk
		for i := range classes {
			sz := sizes[i]
			if sz < 2 {
				continue // a 1-unit node is always "full"; no partial loads exist
			}
			q := &classes[i]
			ring, qmask, head, qn := q.ring, len(q.ring)-1, q.head, q.n
			if j := k - 1; !math.IsInf(full[j&mask], 1) {
				g := full[j&mask] - q.slope*float64(j)
				for qn > 0 && ring[(head+qn-1)&qmask].g >= g {
					qn--
				}
				ring[(head+qn)&qmask] = dequeEntry{j: j, g: g}
				qn++
			}
			for lo := k - sz + 1; qn > 0 && ring[head].j < lo; qn-- {
				head = (head + 1) & qmask
			}
			q.head, q.n = head, qn
			if qn == 0 {
				continue
			}
			e := ring[head]
			c := q.idle + q.slope*float64(k) + e.g // = minFull[j] + idle + slope*(k-j)
			if c < ck-1e-12 {
				ck = c
			}
		}
		t.cost[k] = ck
	}
	return t, nil
}

// ringLen returns the smallest power of two above n.
func ringLen(n int) int {
	return 1 << bits.Len(uint(n))
}

// prefix returns a view of entries 0..n, which must exist.
func (t *exactTable) prefix(n int) *exactTable {
	return &exactTable{step: t.step, cost: t.cost[:n+1]}
}

// powerAt returns the optimal power for the given rate, or +Inf if the rate
// is not exactly coverable by the candidate set (which cannot happen when a
// 1-unit architecture is present). Fractional rates interpolate linearly
// between the adjacent grid optima: because every configuration's power is
// linear in its partial node's load, the true fractional optimum between
// two grid points is a concave lower envelope, and the chord never exceeds
// it — so interpolation keeps the value a valid lower bound. On the unit
// grid, the LowerBound scenario's, the rate is already in grid units and
// is not divided.
func (t *exactTable) powerAt(rate float64) float64 {
	if t.step != 1 {
		rate /= t.step
	}
	return t.unitPowerAt(rate)
}

// unitPowerAt is powerAt of x grid units. It rounds x up to the grid as
// gridIndex does, clamped to the table, and is small enough to inline.
func (t *exactTable) unitPowerAt(x float64) float64 {
	u := math.Ceil(x - 1e-9)
	if !(u > 0) { // no rate, NaN, or within the tolerance of 0: cost[0]
		return 0
	}
	k := len(t.cost) - 1
	if u < float64(k) {
		k = int(u)
	}
	c1 := t.cost[k]
	if float64(k) <= x {
		return c1
	}
	// A +Inf c1 interpolates to itself; a +Inf c0 would give NaN.
	c0 := t.cost[k-1]
	if c0 > math.MaxFloat64 {
		return c1
	}
	return c0 + (x-float64(k-1))*(c1-c0)
}

// maxUnits returns the largest representable grid index.
func (t *exactTable) maxUnits() int { return len(t.cost) - 1 }

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
	if err := validMaxRate(maxRate); err != nil {
		return nil, err
	}
	for _, a := range candidates {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	t, err := newExactTable(candidates, maxRate, step)
	if err != nil {
		return nil, err
	}
	return &ExactSolver{t: t}, nil
}

func validMaxRate(maxRate float64) error {
	if maxRate < 0 || math.IsNaN(maxRate) || math.IsInf(maxRate, 0) {
		return fmt.Errorf("bml: invalid max rate %v", maxRate)
	}
	return nil
}

// exactMemo is a planner's one exact table (see Planner.Exact): readers
// load the published table without locking, and a reader that needs more
// units builds a larger one under mu.
type exactMemo struct {
	mu    sync.Mutex // held while a table is built
	table atomic.Pointer[exactTable]
}

// at returns a view of entries 0..n of the memo's table over archs on the
// given step, first replacing the table with a fresh build of exactly n
// units when n is past its top. Views handed out before stay valid.
func (m *exactMemo) at(archs []profile.Arch, n int, step float64) (*exactTable, error) {
	if t := m.table.Load(); t != nil && n <= t.maxUnits() {
		return t.prefix(n), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table.Load()
	if t == nil || n > t.maxUnits() {
		var err error
		if t, err = buildExactTable(archs, n, step); err != nil {
			return nil, err
		}
		m.table.Store(t)
	}
	return t.prefix(n), nil
}

// Exact returns the solver NewExactSolver(p.Candidates(), maxRate, 1)
// would build, the LowerBound Theoretical scenario's unit rate grid
// whatever the planner's step, as an O(1) prefix view of one table the
// planner keeps for its lifetime. Its answers are bit-identical to the
// fresh solver's. A maxRate past the table's top replaces the table with
// one built up to maxRate; views handed out before stay valid. Safe for
// concurrent use.
func (p *Planner) Exact(maxRate float64) (*ExactSolver, error) {
	if err := validMaxRate(maxRate); err != nil {
		return nil, err
	}
	t, err := p.exact.at(p.candidates, gridIndex(maxRate, 1, math.MaxInt), 1)
	if err != nil {
		return nil, err
	}
	return &ExactSolver{t: t}, nil
}

// PowerAt returns the optimal power for rate (clamped to the precomputed
// range). Infinite results (rate not coverable) are reported as +Inf watts.
func (s *ExactSolver) PowerAt(rate float64) power.Watts {
	return power.Watts(s.t.powerAt(rate))
}
