package bml

import (
	"math"
	"sync/atomic"
)

// Lookup is the rate→combination interface the scheduler consumes.
// Planner.Lookup serves it from the planner's shared memo.
type Lookup interface {
	// At returns the ideal combination for the given rate, rounding demand
	// up to the planner's grid and clamping to the lookup's maximum rate.
	At(rate float64) Combination
}

// memoCap bounds the planner's combination memo: grid indexes below it are
// computed once and kept for the planner's lifetime, while indexes at or
// past it (fleet-scaled rates) are computed on every lookup and never
// stored. A long-lived planner therefore holds at most memoCap entries,
// whatever rates it serves.
const memoCap = 1 << 16

// memoChunk is the number of grid indexes per lazily allocated memo chunk,
// so a planner that only serves paper-scale rates allocates a few chunks.
const memoChunk = 1 << 8

// combinationMemo maps a grid index k below memoCap to Combination(k·step).
// Chunks and entries are published with compare-and-swap, so lookups from
// any number of goroutines never block. Two goroutines racing on one new
// entry both compute it and agree, since an entry is a pure function of k.
type combinationMemo [memoCap / memoChunk]atomic.Pointer[[memoChunk]atomic.Pointer[Combination]]

// Lookup returns the rate→combination lookup over [0, maxRate]. Every
// lookup of one planner reads the same memo: an entry does not depend on
// maxRate, which only sets where At clamps. Building one is O(1),
// and it is safe for concurrent use.
func (p *Planner) Lookup(maxRate float64) Lookup {
	return &planLookup{p: p, maxIdx: gridIndex(maxRate, p.step, math.MaxInt)}
}

type planLookup struct {
	p      *Planner
	maxIdx int
}

func (l *planLookup) At(rate float64) Combination {
	return l.p.combinationAt(gridIndex(rate, l.p.step, l.maxIdx))
}

// combinationAt returns Combination(k·step) through the memo.
func (p *Planner) combinationAt(k int) Combination {
	if k >= memoCap {
		return p.Combination(float64(k) * p.step)
	}
	dir := &p.memo[k/memoChunk]
	chunk := dir.Load()
	if chunk == nil {
		dir.CompareAndSwap(nil, new([memoChunk]atomic.Pointer[Combination]))
		chunk = dir.Load()
	}
	e := &chunk[k%memoChunk]
	if c := e.Load(); c != nil {
		return *c
	}
	c := p.Combination(float64(k) * p.step)
	e.CompareAndSwap(nil, &c)
	return c
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
