// Package cluster manages the heterogeneous machine fleet the BML scheduler
// reconfigures: one pool of machines per architecture, switch-on/switch-off
// actions toward a target combination, fill-biggest-first load dispatch
// across powered-on nodes, and aggregate energy accounting.
//
// The fleet is indexed for span-integrating simulation at scale. Each pool keeps
// its non-Off machines on an active list, its reusable Off machines on a
// free list, and per-state counters, so ActiveCounts and Reconfiguring
// are O(architectures) and Distribute/Tick are O(powered machines) rather
// than O(fleet). Pending transitions live in a min-heap keyed by absolute
// completion time with lazy invalidation (transheap.go), making
// NextTransitionEnd — the integrator's wake-up signal — an O(1) peek.
// differential_test.go holds the index to the original per-machine linear
// scans, kept there as a naive fleet model stepped in lockstep with the
// Cluster on randomized fleets and fault schedules.
//
// For span-integrating engines, StartFold (integrate.go) exposes the same
// fill-first dispatch arithmetic as a demand fold: whole runs of constant
// demand integrate in closed form against a frozen configuration, and only
// transitioning machines are ticked, once per span instead of once per
// sample.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/profile"
)

// node wraps one machine with the bookkeeping the transition index needs.
type node struct {
	m *machine.Machine
	// seq counts transitions started on this machine; heap entries record
	// the value at push time so entries from resolved transitions can be
	// recognized as stale.
	seq uint64
	// booting records the direction of the current transition, so the
	// completion fold knows which counter to release without having
	// observed the pre-tick state.
	booting bool
}

// pool groups the machines of one architecture. Machines within a pool are
// identical, which is what makes aggregate integration possible: the On
// fleet's draw is a closed form of how many nodes run full, partial, and
// idle, so Tick and Distribute cost O(1) per pool on the hot path instead
// of O(nodes).
//
// Shape invariant: the on list always materializes the fill-first pattern
// — a prefix of distFull fully loaded nodes, then at most one partial
// node, then an idle tail — because Distribute assigns along the list,
// admissions append idle nodes at the tail, and retirements take the tail
// first (the least-loaded nodes, exactly as the paper's policy wants).
// Loads are therefore non-increasing along the list at all times, which
// is what lets retirement selection and the cached aggregate draw skip
// per-machine scans entirely.
type pool struct {
	arch profile.Arch
	// nodes is every machine ever provisioned, in creation order.
	nodes []*node
	// on holds the On machines in a stable order; Distribute assigns load
	// fill-first along this order (a prefix of full nodes, at most one
	// partial node, idle tail).
	on []*node
	// trans holds the Booting and ShuttingDown machines; they are the only
	// machines ticked individually on the hot path (their automata charge
	// the exact per-transition energies).
	trans []*node
	// free holds Off machines available for reuse, most recently freed
	// last.
	free []*node
	// nBooting counts the boots in trans (shutdowns are the rest).
	nBooting int

	// Aggregate distribution state: machines on[0:distFull] carry MaxPerf,
	// on[distFull] carries distRem when distHasPartial, the rest idle.
	distFull       int
	distRem        float64
	distHasPartial bool
	// onPowerW caches the closed-form instantaneous draw of the On fleet;
	// every mutation (dispatch, admissions, retirements) keeps it current.
	// aggIdle/aggDyn accumulate the pool-level energy split with Neumaier
	// compensation, mirroring what per-machine integration would have
	// charged.
	onPowerW             float64
	aggIdle, aggIdleComp float64
	aggDyn, aggDynComp   float64
}

// Cluster is a fleet of machines grouped by architecture. It is not safe
// for concurrent use; drive it from a single simulation loop.
type Cluster struct {
	archs     []profile.Arch // Big→Little
	poolList  []*pool        // aligned with archs
	nextID    map[string]int
	inventory map[string]int // optional per-arch machine limit; absent = unlimited
	faultProb float64        // probability that a boot fails at completion
	faultRng  *rand.Rand

	// now is the cluster's simulation clock, advanced by Tick. It only
	// keys the transition heap; machine automata keep their own countdowns.
	now         float64
	pushTick    uint64
	transitions transHeap

	// fold is the recycled DemandFold buffer handed out by StartFold.
	fold *DemandFold
}

// Option customizes cluster construction.
type Option func(*Cluster)

// WithInventory caps the number of machines that can ever exist per
// architecture name (the limited-infrastructure variant of §IV-A).
func WithInventory(limits map[string]int) Option {
	return func(c *Cluster) {
		c.inventory = make(map[string]int, len(limits))
		for k, v := range limits {
			c.inventory[k] = v
		}
	}
}

// WithBootFaults makes each power-on fail at boot completion with the
// given probability (deterministic under seed): the machine consumes its
// whole boot energy and lands back in Off. This is the failure-injection
// hook used to verify that the scheduler converges despite flaky hardware.
func WithBootFaults(prob float64, seed int64) Option {
	return func(c *Cluster) {
		if prob < 0 {
			prob = 0
		}
		if prob > 1 {
			prob = 1
		}
		c.faultProb = prob
		c.faultRng = rand.New(rand.NewSource(seed))
	}
}

// New creates an empty cluster able to host machines of the given
// architectures (ordered Big→Little internally).
func New(archs []profile.Arch, opts ...Option) (*Cluster, error) {
	if len(archs) == 0 {
		return nil, errors.New("cluster: no architectures")
	}
	c := &Cluster{nextID: make(map[string]int, len(archs))}
	seen := make(map[string]bool, len(archs))
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("cluster: duplicate architecture %q", a.Name)
		}
		seen[a.Name] = true
		c.archs = append(c.archs, a)
	}
	slices.SortFunc(c.archs, profile.CompareBigToLittle)
	for _, a := range c.archs {
		c.poolList = append(c.poolList, &pool{arch: a})
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Architectures returns the hosted architectures in Big→Little order
// (profile.CompareBigToLittle), the order of every count vector the
// cluster reads or writes. The slice is the cluster's own: callers must
// not modify it.
func (c *Cluster) Architectures() []profile.Arch {
	return c.archs[:len(c.archs):len(c.archs)]
}

// active returns the number of machines counting toward the target: On
// plus Booting (a booting machine has been committed to the target).
func (p *pool) active() int { return len(p.on) + p.nBooting }

// ActiveCounts writes the per-architecture active machine counts
// (On+Booting) into dst, one entry per architecture in Big→Little order,
// and returns it. dst is reused when it has the capacity, so a caller that
// keeps the returned vector allocates only once.
func (c *Cluster) ActiveCounts(dst []int) []int {
	dst = slices.Grow(dst[:0], len(c.poolList))[:len(c.poolList)]
	for i, p := range c.poolList {
		dst[i] = p.active()
	}
	return dst
}

// SetTarget switches machines on or off so the active count per
// architecture converges to target. Machines currently shutting down are
// unavailable until they reach Off; if the pool has no reusable Off
// machine, a new one is provisioned unless the inventory cap forbids it.
// target holds one count per architecture in Big→Little order (the
// order of Architectures and ActiveCounts). It returns the number of
// switch-on and switch-off actions started.
func (c *Cluster) SetTarget(target []int) (switchedOn, switchedOff int, err error) {
	if len(target) != len(c.poolList) {
		return 0, 0, fmt.Errorf("cluster: target has %d counts for %d architectures", len(target), len(c.poolList))
	}
	for i, want := range target {
		if want < 0 {
			return 0, 0, fmt.Errorf("cluster: negative target %d for %q", want, c.archs[i].Name)
		}
	}
	for i, p := range c.poolList {
		want := target[i]
		have := p.active()
		switch {
		case have < want:
			for have < want {
				nd, perr := c.provision(p)
				if perr != nil {
					return switchedOn, switchedOff, perr
				}
				if c.faultProb > 0 && c.faultRng.Float64() < c.faultProb {
					nd.m.InjectBootFailure()
				}
				if perr := nd.m.PowerOn(); perr != nil {
					return switchedOn, switchedOff, perr
				}
				c.startedTransition(p, nd)
				switchedOn++
				have++
			}
		case have > want:
			// Switch off On machines first (Booting machines cannot be
			// aborted in the paper's model: On/Off actions run to
			// completion). The shape invariant orders the on list by
			// non-increasing load, so the least-loaded nodes are exactly
			// the tail: retirement is O(retired), no sort, no scan.
			n := len(p.on)
			removed := 0
			for have > want && removed < n {
				nd := p.on[n-1-removed]
				if perr := nd.m.PowerOff(); perr != nil {
					return switchedOn, switchedOff, perr
				}
				c.startedShutdown(p, nd)
				removed++
				switchedOff++
				have--
			}
			if removed > 0 {
				newN := n - removed
				p.on = p.on[:newN]
				if loaded := p.loadedCount(); newN >= loaded {
					// Only idle-tail nodes retired: the prefix (and its
					// draw minus the lost idle draw) is untouched.
					p.onPowerW -= float64(removed) * float64(p.arch.IdlePower)
				} else {
					// The retirement ate into the loaded prefix; every
					// survivor is fully loaded.
					p.distFull = newN
					p.distRem = 0
					p.distHasPartial = false
					p.onPowerW = float64(newN) * float64(p.arch.MaxPower)
				}
			}
		}
	}
	return switchedOn, switchedOff, nil
}

// startedTransition updates the index after a successful PowerOn: the node
// joins the transitioning list and — unless the boot resolved instantly —
// the transition heap.
func (c *Cluster) startedTransition(p *pool, nd *node) {
	nd.seq++
	switch nd.m.State() {
	case machine.Booting:
		nd.booting = true
		p.trans = append(p.trans, nd)
		p.nBooting++
		c.pushTransition(nd)
	case machine.On: // zero-duration boot resolved inside PowerOn
		p.admitOn(nd)
	}
}

// admitOn adds a freshly powered (idle) machine to the On list and folds
// its idle draw into the cached aggregate. The newcomer sits past the
// distribution prefix with zero load, so the shape invariant holds.
func (p *pool) admitOn(nd *node) {
	p.on = append(p.on, nd)
	p.onPowerW += float64(p.arch.IdlePower)
}

// startedShutdown updates the index after a successful PowerOff of an On
// machine. The caller removes the node from the on list (possibly in
// batch); this handles the transition side.
func (c *Cluster) startedShutdown(p *pool, nd *node) {
	nd.seq++
	switch nd.m.State() {
	case machine.ShuttingDown:
		nd.booting = false
		p.trans = append(p.trans, nd)
		c.pushTransition(nd)
	case machine.Off: // zero-duration shutdown resolved inside PowerOff
		p.free = append(p.free, nd)
	}
}

// provision finds an Off machine to reuse or creates a new one.
func (c *Cluster) provision(p *pool) (*node, error) {
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free = p.free[:n-1]
		return nd, nil
	}
	if limit, capped := c.inventory[p.arch.Name]; capped && len(p.nodes) >= limit {
		return nil, fmt.Errorf("cluster: inventory of %q exhausted (%d machines)", p.arch.Name, limit)
	}
	c.nextID[p.arch.Name]++
	m, err := machine.New(fmt.Sprintf("%s-%d", p.arch.Name, c.nextID[p.arch.Name]), p.arch)
	if err != nil {
		return nil, err
	}
	nd := &node{m: m}
	p.nodes = append(p.nodes, nd)
	return nd, nil
}

// loadedCount returns how many nodes of the pool carry load under the
// current distribution (the full prefix plus the partial node, if any).
func (p *pool) loadedCount() int {
	if p.distHasPartial {
		return p.distFull + 1
	}
	return p.distFull
}

// Reconfiguring reports whether any machine is mid-transition — the
// condition under which the paper's scheduler defers all decisions.
func (c *Cluster) Reconfiguring() bool {
	for _, p := range c.poolList {
		if len(p.trans) > 0 {
			return true
		}
	}
	return false
}

// NextTransitionEnd returns the shortest remaining transition time across
// the fleet (zero when no machine is transitioning) — the next instant at
// which a machine changes state on its own, which is the interval
// integrator's wake-up signal. With the transition heap this is an O(1)
// peek (plus amortized O(log n) lazy pruning of resolved transitions).
func (c *Cluster) NextTransitionEnd() float64 {
	c.pruneTransitions()
	if len(c.transitions) == 0 {
		return 0
	}
	// Return the machine's own countdown, not end-now: the automaton's
	// remaining time is the value the per-machine reference reports and the
	// one whose arithmetic the engines rely on.
	return c.transitions[0].nd.m.Remaining()
}

// Distribute assigns load across On machines, filling the biggest
// architectures' nodes completely before touching smaller ones (machines
// are most energy efficient fully loaded). It returns the rate actually
// served, which is less than load when capacity is insufficient.
//
// The fill-first assignment within a pool of identical machines is always
// a prefix of full nodes, at most one partial node, and an idle tail, so
// the pool's share and aggregate draw are computed in closed form and only
// the machines whose assignment actually changed since the previous call
// are touched: steady-state dispatch costs O(architectures), not
// O(powered machines).
func (c *Cluster) Distribute(load float64) (served float64, err error) {
	if load < 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		return 0, fmt.Errorf("cluster: invalid load %v", load)
	}
	remaining := load
	for _, p := range c.poolList {
		n := len(p.on)
		if n == 0 {
			continue
		}
		maxPerf := p.arch.MaxPerf
		full := 0
		rem := 0.0
		hasPartial := false
		if remaining > 0 {
			if fullF := math.Floor(remaining / maxPerf); fullF >= float64(n) {
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
		// Materialize per-machine loads. The shape invariant means only
		// machines between the old and new full/partial boundary can
		// change, so steady-state dispatch touches O(1) machines.
		lo := min(full, p.distFull)
		hi := max(full, p.distFull)
		if hi > n-1 {
			hi = n - 1
		}
		for i := lo; i <= hi; i++ {
			var want float64
			switch {
			case i < full:
				want = maxPerf
			case i == full && hasPartial:
				want = rem
			}
			if nd := p.on[i]; nd.m.Load() != want {
				if err := nd.m.SetLoad(want); err != nil {
					return served, err
				}
			}
		}
		p.distFull, p.distRem, p.distHasPartial = full, rem, hasPartial
		// Cached aggregate draw of the whole pool, used by Tick.
		pw := float64(full) * float64(p.arch.MaxPower)
		idleNodes := n - full
		if hasPartial {
			pw += float64(p.arch.PowerAt(rem))
			idleNodes--
		}
		pw += float64(idleNodes) * float64(p.arch.IdlePower)
		p.onPowerW = pw

		servedP := float64(full)*maxPerf + rem
		served += servedP
		remaining -= servedP
		if remaining < 0 {
			remaining = 0
		}
	}
	return served, nil
}

// Tick advances all machines by dt seconds and returns the total energy
// consumed, including transition energies. The On fleet of each pool is
// integrated in one closed-form step from the cached distribution
// aggregate (identical machines, known full/partial/idle split); only
// transitioning machines are ticked individually, charging their exact
// per-transition energies through the automata. Transition completions
// fold back into the pool lists and (lazily) the heap. The per-call cost
// is therefore O(architectures + transitioning machines) on the hot path —
// independent of fleet size — with an exact per-machine fallback whenever
// loads were perturbed outside Distribute.
func (c *Cluster) Tick(dt float64) (power.Joules, error) {
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, fmt.Errorf("cluster: invalid tick duration %v", dt)
	}
	c.now += dt
	var total power.Joules
	for _, p := range c.poolList {
		// On fleet: one closed-form step per pool.
		if len(p.on) > 0 && dt > 0 {
			e := p.onPowerW * dt
			idle := float64(len(p.on)) * float64(p.arch.IdlePower) * dt
			p.aggIdle, p.aggIdleComp = power.NeumaierAdd(p.aggIdle, p.aggIdleComp, idle)
			p.aggDyn, p.aggDynComp = power.NeumaierAdd(p.aggDyn, p.aggDynComp, e-idle)
			total += power.Joules(e)
		}
		// Transitioning machines: exact automata integration.
		for _, nd := range p.trans {
			e, err := nd.m.Tick(dt)
			if err != nil {
				return total, err
			}
			total += e
		}
		c.foldCompletions(p)
	}
	c.pruneTransitions()
	return total, nil
}

// foldCompletions moves machines whose transition resolved during the tick
// out of the transitioning list: completed boots join the On fleet (idle
// until the next dispatch), completed shutdowns and failed boots join the
// free list.
func (c *Cluster) foldCompletions(p *pool) {
	done := false
	for _, nd := range p.trans {
		if !nd.m.Transitioning() {
			done = true
			break
		}
	}
	if !done {
		return
	}
	kept := p.trans[:0]
	for _, nd := range p.trans {
		switch {
		case nd.m.Transitioning():
			kept = append(kept, nd)
		case nd.m.State() == machine.On:
			p.nBooting--
			p.admitOn(nd)
		default: // Off: completed shutdown or failed boot
			if nd.booting {
				p.nBooting--
			}
			p.free = append(p.free, nd)
		}
	}
	p.trans = kept
}

// Breakdown returns the fleet's cumulative energy split across transition,
// idle, and dynamic components: the per-machine automata accumulators
// (transitions, and any On time integrated through the per-machine paths)
// plus the pool-level aggregates charged by closed-form On integration.
func (c *Cluster) Breakdown() power.Breakdown {
	var b power.Breakdown
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			b.Add(nd.m.Breakdown())
		}
		b.Idle += power.Joules(p.aggIdle + p.aggIdleComp)
		b.Dynamic += power.Joules(p.aggDyn + p.aggDynComp)
	}
	return b
}
