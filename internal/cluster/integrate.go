package cluster

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/profile"
)

// DemandFold integrates the On fleet's energy over a span of demand samples
// without materializing per-machine loads per sample. Between two scheduler
// events the machine configuration is fixed, so fill-first dispatch makes
// the fleet draw a pure (piecewise affine) function of the instantaneous
// demand: Observe replays Distribute's closed-form pool arithmetic — the
// same expressions in the same order, so every per-run float is identical
// to what Distribute+Tick would have produced — but touches no machine and
// allocates nothing. Commit then merges the folded pool aggregates and
// ticks only the transitioning machines, whose automata charge exact
// transition energies over the whole span.
//
// A fold leaves the dispatch state (per-machine loads, the pools' cached
// shape and draw) as the last Distribute left it. Nothing on the fold path
// reads that state — it feeds only Tick, and Distribute rebuilds it from
// the On lists before any Tick — and every fleet change keeps it
// consistent with the machines, so an engine may mix folds and
// Distribute+Tick steps.
//
// The contract mirrors the integrator's span bounds: no transition may
// complete strictly before the span's final second (the caller bounds spans
// by NextTransitionEnd), so deferring completion folding to Commit observes
// completions at exactly the second the per-second oracle does.
//
// A fold is single-use per span and reused across spans via
// Cluster.StartFold; like the Cluster itself it is not safe for concurrent
// use.
type DemandFold struct {
	c      *Cluster
	pools  []foldPool
	energy power.Accumulator
}

// foldPool accumulates one pool's On energy over the span with compensated
// summation, alongside the span-constant dispatch parameters StartFold
// caches so the per-sample Observe loop never chases the pool or its
// architecture profile.
type foldPool struct {
	e power.Accumulator
	// Span-constant configuration, cached by StartFold: the On count (as
	// int and pre-converted float), the per-node performance ceiling, the
	// power endpoints pre-converted to float64, and the architecture (for
	// the partial node's PowerAt curve).
	n        int
	nF       float64
	maxPerf  float64
	maxPower float64
	idleW    float64
	arch     profile.Arch
}

// StartFold begins a demand fold over the cluster's current configuration.
// The returned fold is owned by the cluster and recycled on the next call.
func (c *Cluster) StartFold() *DemandFold {
	if c.fold == nil {
		c.fold = &DemandFold{c: c, pools: make([]foldPool, len(c.poolList))}
	}
	f := c.fold
	for i, p := range c.poolList {
		fp := &f.pools[i]
		n := len(p.on)
		*fp = foldPool{
			n:        n,
			nF:       float64(n),
			maxPerf:  p.arch.MaxPerf,
			maxPower: float64(p.arch.MaxPower),
			idleW:    float64(p.arch.IdlePower),
			arch:     p.arch,
		}
	}
	f.energy.Reset()
	return f
}

// Observe folds one run of dt seconds at constant demand: it computes the
// fill-first dispatch shape and the pool draws exactly as Distribute would,
// charges the closed-form pool energies exactly as Tick would, and returns
// the served rate. Machines are not touched.
func (f *DemandFold) Observe(load, dt float64) (served float64, err error) {
	if load < 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		return 0, fmt.Errorf("cluster: invalid load %v", load)
	}
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, fmt.Errorf("cluster: invalid fold duration %v", dt)
	}
	remaining := load
	for i := range f.pools {
		fp := &f.pools[i]
		n := fp.n
		if n == 0 {
			continue
		}
		// Dispatch shape — Distribute's arithmetic, verbatim (the cached
		// parameters are the same float64 values Distribute reads through
		// the pool, so every expression rounds identically).
		maxPerf := fp.maxPerf
		full := 0
		rem := 0.0
		hasPartial := false
		if remaining > 0 {
			if fullF := math.Floor(remaining / maxPerf); fullF >= fp.nF {
				full = n
			} else {
				full = int(fullF)
			}
			rem = remaining - float64(full)*maxPerf
			if rem < 0 || full == n {
				rem = 0
			}
			hasPartial = rem > 0
		}
		pw := float64(full) * fp.maxPower
		idleNodes := n - full
		if hasPartial {
			pw += float64(fp.arch.PowerAt(rem))
			idleNodes--
		}
		pw += float64(idleNodes) * fp.idleW

		// Pool energy: one compensated add per active pool per run; the
		// idle/dynamic split is derived once per span in Commit (the idle
		// component n × IdlePower is span-constant).
		if dt > 0 {
			fp.e.Add(pw * dt)
		}

		servedP := float64(full)*maxPerf + rem
		served += servedP
		remaining -= servedP
		if remaining < 0 {
			remaining = 0
		}
	}
	return served, nil
}

// Commit closes the span: it advances the clock by the whole span, merges
// the folded pool energy splits, ticks the transitioning machines, and
// folds any transition completions. It returns the span's total energy:
// the folded On-fleet energy plus the exact transition energies.
func (f *DemandFold) Commit(dt float64) (power.Joules, error) {
	c := f.c
	c.now += dt
	for i, p := range c.poolList {
		fp := &f.pools[i]
		if e := fp.e.Sum(); e != 0 {
			f.energy.Add(e)
			// The On count is frozen for the whole span, so the idle floor
			// integrates in closed form; the dynamic component is the rest.
			// (Compensated sums make this split agree with per-interval
			// accumulation to summation ulps.)
			idle := fp.nF * fp.idleW * dt
			p.aggIdle, p.aggIdleComp = power.NeumaierAdd(p.aggIdle, p.aggIdleComp, idle)
			p.aggDyn, p.aggDynComp = power.NeumaierAdd(p.aggDyn, p.aggDynComp, e-idle)
		}
		for _, nd := range p.trans {
			e, err := nd.m.Tick(dt)
			if err != nil {
				return 0, err
			}
			f.energy.Add(float64(e))
		}
		c.foldCompletions(p)
	}
	c.pruneTransitions()
	return power.Joules(f.energy.Sum()), nil
}
