package bml

import (
	"math"
	"sync/atomic"

	"repro/internal/profile"
)

// The placement and lookup the planner used before its lookups returned
// node counts, kept as the oracle that Planner.Combination and
// Lookup.Counts are held to: refPlace builds a Combination slot by slot,
// and refLookup reads it through the per-planner memo that Lookup used to
// share. The slot builders also serve the tests that assemble
// combinations by hand.

func newCombination(order []profile.Arch) Combination {
	slots := make([]Slot, len(order))
	for i, a := range order {
		slots[i] = Slot{Arch: a}
	}
	return Combination{Slots: slots}
}

func (c *Combination) slotFor(a profile.Arch) *Slot {
	for i := range c.Slots {
		if c.Slots[i].Arch.Name == a.Name {
			return &c.Slots[i]
		}
	}
	c.Slots = append(c.Slots, Slot{Arch: a})
	return &c.Slots[len(c.Slots)-1]
}

func (c *Combination) addFull(a profile.Arch, n int) { c.slotFor(a).Full += n }

func (c *Combination) addPartial(a profile.Arch, load float64) {
	s := c.slotFor(a)
	// Merge: a second partial request for the same arch consolidates into
	// full nodes plus one partial, preserving the <=1-partial invariant.
	total := s.PartialLoad + load
	extraFull := int(total / a.MaxPerf)
	if rem := total - float64(extraFull)*a.MaxPerf; rem > 1e-9 {
		s.PartialLoad = rem
	} else {
		s.PartialLoad = 0
	}
	s.Full += extraFull
}

// refAvailable returns how many more nodes of candidate i may be added
// given current usage in c.
func refAvailable(p *Planner, c *Combination, i int) int {
	if p.inventory == nil {
		return math.MaxInt32
	}
	limit, ok := p.inventory[p.candidates[i].Name]
	if !ok {
		return math.MaxInt32
	}
	used := 0
	for _, s := range c.Slots {
		if s.Arch.Name == p.candidates[i].Name {
			used = s.Nodes()
		}
	}
	if limit < used {
		return 0
	}
	return limit - used
}

// refCombination is Planner.Combination as the oracle computes it.
func refCombination(p *Planner, rate float64) Combination {
	c := newCombination(p.candidates)
	if rate <= 0 || math.IsNaN(rate) {
		return c
	}
	units := math.Ceil(rate/p.step - 1e-9)
	rem := units * p.step
	refPlace(p, &c, rem, 0)
	return c
}

// refPlace assigns rem across candidates[from:], honoring thresholds and
// inventory limits.
func refPlace(p *Planner, c *Combination, rem float64, from int) {
	const eps = 1e-9
	for rem > eps {
		chosen := -1
		for j := from; j < len(p.candidates); j++ {
			if refAvailable(p, c, j) == 0 {
				continue
			}
			if p.thresholds[j].Rate <= rem+eps {
				chosen = j
				break
			}
		}
		if chosen == -1 {
			for j := len(p.candidates) - 1; j >= from; j-- {
				if refAvailable(p, c, j) > 0 {
					chosen = j
					break
				}
			}
		}
		if chosen == -1 {
			c.Infeasible += rem
			return
		}
		a := p.candidates[chosen]
		avail := refAvailable(p, c, chosen)
		if rem >= a.MaxPerf-eps {
			n := int(math.Floor(rem/a.MaxPerf + eps))
			if n > avail {
				n = avail
			}
			if n > 0 {
				c.addFull(a, n)
				rem -= float64(n) * a.MaxPerf
				if rem < eps {
					rem = 0
				}
			}
			if refAvailable(p, c, chosen) == 0 {
				continue
			}
			from = chosen
			continue
		}
		c.addPartial(a, rem)
		return
	}
}

// memoCap bounds the oracle's memo: grid indexes below it are computed
// once and kept, indexes at or past it are computed on every lookup.
const memoCap = 1 << 16

// memoChunk is the number of grid indexes per lazily allocated memo chunk.
const memoChunk = 1 << 8

// combinationMemo maps a grid index k below memoCap to
// refCombination(k·step), publishing chunks and entries with
// compare-and-swap.
type combinationMemo [memoCap / memoChunk]atomic.Pointer[[memoChunk]atomic.Pointer[Combination]]

// refLookup is the memoized lookup over [0, maxRate].
type refLookup struct {
	p      *Planner
	memo   *combinationMemo
	maxIdx int
}

func newRefLookup(p *Planner, maxRate float64) refLookup {
	return refLookup{p: p, memo: new(combinationMemo), maxIdx: gridIndex(maxRate, p.step, math.MaxInt)}
}

// at returns the combination for rate at its clamped grid index.
func (l refLookup) at(rate float64) Combination {
	return l.combinationAt(gridIndex(rate, l.p.step, l.maxIdx))
}

// combinationAt returns refCombination(k·step) through the memo.
func (l refLookup) combinationAt(k int) Combination {
	if k >= memoCap {
		return refCombination(l.p, float64(k)*l.p.step)
	}
	dir := &l.memo[k/memoChunk]
	chunk := dir.Load()
	if chunk == nil {
		dir.CompareAndSwap(nil, new([memoChunk]atomic.Pointer[Combination]))
		chunk = dir.Load()
	}
	e := &chunk[k%memoChunk]
	if c := e.Load(); c != nil {
		return *c
	}
	c := refCombination(l.p, float64(k)*l.p.step)
	e.CompareAndSwap(nil, &c)
	return c
}
