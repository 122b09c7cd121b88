package cluster

// Differential property tests for the fleet index (per-state lists, cached
// pool aggregates, the transition min-heap). Every indexed query must agree
// with the original O(fleet) per-machine scans, kept here as the naive
// model, after every operation of randomized target/dispatch/tick schedules
// over randomized fleets, including boot-fault schedules and
// zero-duration transition profiles. A lockstep test additionally steps a
// naive per-machine fleet beside the Cluster through the same inputs and
// requires identical actions, energies, counts and reconfiguration state.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/profile"
)

// timeTol absorbs the ulp-level drift between the heap's absolute-end
// ordering and the automata's relative countdowns under fractional tick
// durations. Integer-second schedules are exact.
const timeTol = 1e-9

// randomClusterCatalog builds 2–4 valid architectures with randomized
// profiles. Roughly one in five transition durations is zero, exercising
// the instantly-resolving paths that never enter the heap.
func randomClusterCatalog(rng *rand.Rand) []profile.Arch {
	n := 2 + rng.Intn(3)
	archs := make([]profile.Arch, n)
	perf := 5 + 20*rng.Float64()
	for i := n - 1; i >= 0; i-- {
		idle := 1 + 15*rng.Float64()
		dyn := 5 + 50*rng.Float64()
		onDur := time.Duration(rng.Intn(25)) * time.Second // may be zero
		offDur := time.Duration(rng.Intn(8)) * time.Second // may be zero
		archs[i] = profile.Arch{
			Name:        fmt.Sprintf("arch%d", i),
			MaxPerf:     math.Round(perf),
			IdlePower:   power.Watts(idle),
			MaxPower:    power.Watts(idle + dyn),
			OnDuration:  onDur,
			OnEnergy:    power.Joules(10 + 400*rng.Float64()),
			OffDuration: offDur,
			OffEnergy:   power.Joules(2 + 60*rng.Float64()),
		}
		perf *= 2 + 4*rng.Float64()
	}
	return archs
}

// Indexed reads that only tests take: production asks the cluster for
// active counts, reconfiguration state and the next transition end only.

// nShuttingDown counts the shutdowns in trans.
func (p *pool) nShuttingDown() int { return len(p.trans) - p.nBooting }

// Machines returns every machine in the cluster (all states), Big→Little,
// then by creation order.
func (c *Cluster) Machines() []*machine.Machine {
	var out []*machine.Machine
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			out = append(out, nd.m)
		}
	}
	return out
}

// Capacity returns the total rate the currently On machines can sustain.
func (c *Cluster) Capacity() float64 {
	var cap float64
	for _, p := range c.poolList {
		cap += float64(len(p.on)) * p.arch.MaxPerf
	}
	return cap
}

// PendingTransition returns the longest remaining transition time across
// the fleet (zero when idle). The heap orders by the shortest end; the
// longest is found by walking the live entries.
func (c *Cluster) PendingTransition() float64 {
	var max float64
	for _, e := range c.transitions {
		if e.stale() {
			continue
		}
		if r := e.nd.m.Remaining(); r > max {
			max = r
		}
	}
	return max
}

// CurrentPower returns the instantaneous fleet draw: the cached On
// aggregates plus the transitioning machines.
func (c *Cluster) CurrentPower() power.Watts {
	var pw power.Watts
	for _, p := range c.poolList {
		pw += power.Watts(p.onPowerW)
		for _, nd := range p.trans {
			pw += nd.m.CurrentPower()
		}
	}
	return pw
}

// scan answers fleet queries by walking every machine, pool by pool in
// Big→Little order and in creation order within a pool: the original
// O(fleet) implementations the index replaced.
type scan struct {
	archs []profile.Arch
	pools [][]*machine.Machine
}

// scanOf views the cluster's machines through the scans.
func scanOf(c *Cluster) scan {
	s := scan{archs: c.archs, pools: make([][]*machine.Machine, len(c.poolList))}
	for i, p := range c.poolList {
		for _, nd := range p.nodes {
			s.pools[i] = append(s.pools[i], nd.m)
		}
	}
	return s
}

func (s scan) reconfiguring() bool {
	for _, pool := range s.pools {
		for _, m := range pool {
			if m.Transitioning() {
				return true
			}
		}
	}
	return false
}

func (s scan) nextTransitionEnd() float64 {
	var min float64
	for _, pool := range s.pools {
		for _, m := range pool {
			if r := m.Remaining(); r > 0 && (min == 0 || r < min) {
				min = r
			}
		}
	}
	return min
}

func (s scan) pendingTransition() float64 {
	var max float64
	for _, pool := range s.pools {
		for _, m := range pool {
			if r := m.Remaining(); r > max {
				max = r
			}
		}
	}
	return max
}

func (s scan) capacity() float64 {
	var cap float64
	for i, pool := range s.pools {
		for _, m := range pool {
			if m.State() == machine.On {
				cap += s.archs[i].MaxPerf
			}
		}
	}
	return cap
}

// activeCount counts pool i's On and Booting machines.
func (s scan) activeCount(i int) int {
	n := 0
	for _, m := range s.pools[i] {
		if st := m.State(); st == machine.On || st == machine.Booting {
			n++
		}
	}
	return n
}

func (s scan) activeCounts() []int {
	out := make([]int, len(s.pools))
	for i := range s.pools {
		out[i] = s.activeCount(i)
	}
	return out
}

func (s scan) currentPower() power.Watts {
	var pw power.Watts
	for _, pool := range s.pools {
		for _, m := range pool {
			pw += m.CurrentPower()
		}
	}
	return pw
}

func (s scan) breakdown() power.Breakdown {
	var b power.Breakdown
	for _, pool := range s.pools {
		for _, m := range pool {
			b.Add(m.Breakdown())
		}
	}
	return b
}

// naiveFleet is the per-machine fleet the Cluster was before it was
// indexed: it provisions the first Off machine in creation order, retires
// the least-loaded On machines after sorting by load, dispatches machine
// by machine, and ticks every machine. It draws boot faults from the same
// seeded stream in the same order as WithBootFaults.
type naiveFleet struct {
	scan
	nextID    []int
	faultProb float64
	faultRng  *rand.Rand
}

// newNaiveFleet hosts archs (any order) with boot faults of probability
// faultProb drawn from seed.
func newNaiveFleet(archs []profile.Arch, faultProb float64, seed int64) *naiveFleet {
	sorted := slices.Clone(archs)
	slices.SortFunc(sorted, profile.CompareBigToLittle)
	return &naiveFleet{
		scan:      scan{archs: sorted, pools: make([][]*machine.Machine, len(sorted))},
		nextID:    make([]int, len(sorted)),
		faultProb: faultProb,
		faultRng:  rand.New(rand.NewSource(seed)),
	}
}

func (f *naiveFleet) provision(i int) (*machine.Machine, error) {
	for _, m := range f.pools[i] {
		if m.State() == machine.Off {
			return m, nil
		}
	}
	f.nextID[i]++
	m, err := machine.New(fmt.Sprintf("%s-%d", f.archs[i].Name, f.nextID[i]), f.archs[i])
	if err != nil {
		return nil, err
	}
	f.pools[i] = append(f.pools[i], m)
	return m, nil
}

func (f *naiveFleet) setTarget(target []int) (switchedOn, switchedOff int, err error) {
	for i, want := range target {
		have := f.activeCount(i)
		for ; have < want; have++ {
			m, err := f.provision(i)
			if err != nil {
				return switchedOn, switchedOff, err
			}
			if f.faultProb > 0 && f.faultRng.Float64() < f.faultProb {
				m.InjectBootFailure()
			}
			if err := m.PowerOn(); err != nil {
				return switchedOn, switchedOff, err
			}
			switchedOn++
		}
		var on []*machine.Machine
		for _, m := range f.pools[i] {
			if m.State() == machine.On {
				on = append(on, m)
			}
		}
		sort.Slice(on, func(a, b int) bool { return on[a].Load() < on[b].Load() })
		for _, m := range on {
			if have <= want {
				break
			}
			if err := m.PowerOff(); err != nil {
				return switchedOn, switchedOff, err
			}
			switchedOff++
			have--
		}
	}
	return switchedOn, switchedOff, nil
}

func (f *naiveFleet) distribute(load float64) (served float64, err error) {
	remaining := load
	for i, pool := range f.pools {
		for _, m := range pool {
			if m.State() != machine.On {
				continue
			}
			share := math.Min(remaining, f.archs[i].MaxPerf)
			if err := m.SetLoad(share); err != nil {
				return served, err
			}
			served += share
			remaining -= share
		}
	}
	return served, nil
}

func (f *naiveFleet) tick(dt float64) (power.Joules, error) {
	var total power.Joules
	for _, pool := range f.pools {
		for _, m := range pool {
			e, err := m.Tick(dt)
			if err != nil {
				return total, err
			}
			total += e
		}
	}
	return total, nil
}

// assertIndexMatchesScan compares every indexed query against its linear-
// scan reference on the same cluster.
func assertIndexMatchesScan(t *testing.T, c *Cluster, step string) {
	t.Helper()
	ref := scanOf(c)
	if got, want := c.Reconfiguring(), ref.reconfiguring(); got != want {
		t.Fatalf("%s: Reconfiguring = %v, scan says %v", step, got, want)
	}
	if got, want := c.NextTransitionEnd(), ref.nextTransitionEnd(); math.Abs(got-want) > timeTol {
		t.Fatalf("%s: NextTransitionEnd = %v, scan says %v", step, got, want)
	}
	if got, want := c.PendingTransition(), ref.pendingTransition(); math.Abs(got-want) > timeTol {
		t.Fatalf("%s: PendingTransition = %v, scan says %v", step, got, want)
	}
	if got, want := c.Capacity(), ref.capacity(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s: Capacity = %v, scan says %v", step, got, want)
	}
	if got, want := c.ActiveCounts(nil), ref.activeCounts(); !slices.Equal(got, want) {
		t.Fatalf("%s: ActiveCounts = %v, scan says %v", step, got, want)
	}
	if got, want := float64(c.CurrentPower()), float64(ref.currentPower()); math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("%s: CurrentPower = %v, scan says %v", step, got, want)
	}
	// Structural invariants of the index itself.
	for _, p := range c.poolList {
		var on, booting, down, off int
		for _, nd := range p.nodes {
			switch nd.m.State() {
			case machine.On:
				on++
			case machine.Booting:
				booting++
			case machine.ShuttingDown:
				down++
			case machine.Off:
				off++
			}
		}
		if len(p.on) != on || p.nBooting != booting || p.nShuttingDown() != down {
			t.Fatalf("%s: %s index {on %d boot %d down %d}, fleet has {%d %d %d}",
				step, p.arch.Name, len(p.on), p.nBooting, p.nShuttingDown(), on, booting, down)
		}
		for _, nd := range p.on {
			if nd.m.State() != machine.On {
				t.Fatalf("%s: non-On machine %v on the On list", step, nd.m)
			}
		}
		for _, nd := range p.trans {
			if !nd.m.Transitioning() {
				t.Fatalf("%s: settled machine %v on the transitioning list", step, nd.m)
			}
		}
		for _, nd := range p.free {
			if nd.m.State() != machine.Off {
				t.Fatalf("%s: non-Off machine %v on the free list", step, nd.m)
			}
		}
		// The cached aggregate draw must match a fresh per-machine sum.
		var want float64
		for _, nd := range p.on {
			want += float64(nd.m.CurrentPower())
		}
		if math.Abs(p.onPowerW-want) > 1e-6*(1+want) {
			t.Fatalf("%s: %s cached On draw %v, machines draw %v", step, p.arch.Name, p.onPowerW, want)
		}
		// Shape invariant: the on list materializes the fill-first
		// pattern (full prefix, one optional partial, idle tail).
		for i, nd := range p.on {
			var wantLoad float64
			switch {
			case i < p.distFull:
				wantLoad = p.arch.MaxPerf
			case i == p.distFull && p.distHasPartial:
				wantLoad = p.distRem
			}
			if nd.m.Load() != wantLoad {
				t.Fatalf("%s: %s on[%d] load %v breaks the fill-first shape (want %v; distFull %d partial %v/%v)",
					step, p.arch.Name, i, nd.m.Load(), wantLoad, p.distFull, p.distHasPartial, p.distRem)
			}
		}
	}
	// Every live transition must be indexed (no missing heap entries).
	live := 0
	for _, e := range c.transitions {
		if !e.stale() {
			live++
		}
	}
	transitioning := 0
	for _, p := range c.poolList {
		transitioning += len(p.trans)
	}
	if live != transitioning {
		t.Fatalf("%s: heap indexes %d live transitions, fleet has %d", step, live, transitioning)
	}
}

// driveRandomSchedule applies one randomized operation to the cluster:
// a retarget, a dispatch, or a tick (sometimes fractional).
func driveRandomSchedule(t *testing.T, rng *rand.Rand, c *Cluster, maxNodes int, fractional bool) string {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 3: // retarget
		target := make(map[string]int)
		for _, a := range c.archs {
			if rng.Intn(3) > 0 {
				target[a.Name] = rng.Intn(maxNodes + 1)
			}
		}
		if _, _, err := setTarget(c, target); err != nil {
			// Inventory exhaustion aborts the retarget mid-way; the index
			// must stay consistent over the partially applied target too.
			if !strings.Contains(err.Error(), "inventory") {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("SetTarget(%v)", target)
	case op < 5: // dispatch
		load := rng.Float64() * c.Capacity() * 1.2
		if _, err := c.Distribute(load); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("Distribute(%.2f)", load)
	default: // advance time
		dt := float64(rng.Intn(7))
		if fractional && rng.Intn(3) == 0 {
			dt += rng.Float64()
		}
		if _, err := c.Tick(dt); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("Tick(%.3f)", dt)
	}
}

func TestDifferentialHeapVsScanRandomFleets(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var opts []Option
			if seed%3 == 0 {
				opts = append(opts, WithBootFaults(0.3, seed))
			}
			if seed%4 == 0 {
				opts = append(opts, WithInventory(map[string]int{"arch0": 5 + rng.Intn(20)}))
			}
			c, err := New(randomClusterCatalog(rng), opts...)
			if err != nil {
				t.Fatal(err)
			}
			fractional := seed%2 == 0
			assertIndexMatchesScan(t, c, "init")
			for i := 0; i < 400; i++ {
				step := driveRandomSchedule(t, rng, c, 30, fractional)
				assertIndexMatchesScan(t, c, fmt.Sprintf("op %d (%s)", i, step))
			}
		})
	}
}

// TestDifferentialHeapVsScanTwinClusters steps an indexed cluster and the
// naive per-machine fleet through the identical operation sequence and
// requires the externally observable results — switch actions, served
// rate, energy and its breakdown, counts, capacity, reconfiguration state
// and draw — to agree after every operation.
func TestDifferentialHeapVsScanTwinClusters(t *testing.T) {
	for seed := int64(20); seed <= 26; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			catalog := randomClusterCatalog(rng)
			heapC, err := New(catalog, WithBootFaults(0.25, seed))
			if err != nil {
				t.Fatal(err)
			}
			naive := newNaiveFleet(catalog, 0.25, seed)
			var heapE, naiveE float64
			for i := 0; i < 300; i++ {
				switch rng.Intn(3) {
				case 0:
					target := make([]int, len(catalog))
					for j := range target {
						target[j] = rng.Intn(15)
					}
					hOn, hOff, herr := heapC.SetTarget(target)
					nOn, nOff, nerr := naive.setTarget(target)
					if (herr == nil) != (nerr == nil) {
						t.Fatalf("op %d: SetTarget error mismatch: %v vs %v", i, herr, nerr)
					}
					if hOn != nOn || hOff != nOff {
						t.Fatalf("op %d: actions (%d,%d) vs (%d,%d)", i, hOn, hOff, nOn, nOff)
					}
				case 1:
					load := rng.Float64() * (heapC.Capacity() + 10)
					hServed, herr := heapC.Distribute(load)
					nServed, nerr := naive.distribute(load)
					if herr != nil || nerr != nil {
						t.Fatalf("op %d: distribute: %v / %v", i, herr, nerr)
					}
					if math.Abs(hServed-nServed) > 1e-9 {
						t.Fatalf("op %d: served %v vs %v", i, hServed, nServed)
					}
				default:
					dt := float64(rng.Intn(6))
					he, herr := heapC.Tick(dt)
					ne, nerr := naive.tick(dt)
					if herr != nil || nerr != nil {
						t.Fatalf("op %d: tick: %v / %v", i, herr, nerr)
					}
					heapE += float64(he)
					naiveE += float64(ne)
				}
				if got, want := heapC.Reconfiguring(), naive.reconfiguring(); got != want {
					t.Fatalf("op %d: Reconfiguring %v vs %v", i, got, want)
				}
				if got, want := heapC.NextTransitionEnd(), naive.nextTransitionEnd(); math.Abs(got-want) > timeTol {
					t.Fatalf("op %d: NextTransitionEnd %v vs %v", i, got, want)
				}
				if got, want := heapC.PendingTransition(), naive.pendingTransition(); math.Abs(got-want) > timeTol {
					t.Fatalf("op %d: PendingTransition %v vs %v", i, got, want)
				}
				if got, want := heapC.ActiveCounts(nil), naive.activeCounts(); !slices.Equal(got, want) {
					t.Fatalf("op %d: ActiveCounts %v vs %v", i, got, want)
				}
				if got, want := heapC.Capacity(), naive.capacity(); math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("op %d: Capacity %v vs %v", i, got, want)
				}
				if got, want := float64(heapC.CurrentPower()), float64(naive.currentPower()); math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("op %d: CurrentPower %v vs %v", i, got, want)
				}
			}
			if math.Abs(heapE-naiveE) > 1e-6 {
				t.Errorf("cumulative energy diverges: heap %v vs naive %v", heapE, naiveE)
			}
			hb, nb := heapC.Breakdown(), naive.breakdown()
			for _, d := range []float64{
				float64(hb.Transition - nb.Transition),
				float64(hb.Idle - nb.Idle),
				float64(hb.Dynamic - nb.Dynamic),
			} {
				if math.Abs(d) > 1e-6 {
					t.Errorf("breakdown diverges: heap %v vs naive %v", hb, nb)
					break
				}
			}
		})
	}
}

// TestHeapLazyInvalidation pins the lazy-invalidation contract directly:
// a resolved transition's entry goes stale and is dropped by the next
// peek, and a machine reused for a new transition is re-indexed under a
// fresh sequence number.
func TestHeapLazyInvalidation(t *testing.T) {
	archs := []profile.Arch{{
		Name: "solo", MaxPerf: 10, IdlePower: 2, MaxPower: 8,
		OnDuration: 5 * time.Second, OnEnergy: 50,
		OffDuration: 2 * time.Second, OffEnergy: 10,
	}}
	c, err := New(archs)
	if err != nil {
		t.Fatal(err)
	}
	mustTarget := func(n int) {
		t.Helper()
		if _, _, err := c.SetTarget([]int{n}); err != nil {
			t.Fatal(err)
		}
	}
	mustTarget(1)
	if len(c.transitions) != 1 {
		t.Fatalf("boot not indexed: %d entries", len(c.transitions))
	}
	if got := c.NextTransitionEnd(); got != 5 {
		t.Fatalf("NextTransitionEnd = %v, want 5", got)
	}
	if _, err := c.Tick(5); err != nil {
		t.Fatal(err)
	}
	// The boot resolved: any remaining entry must read as stale and the
	// next peek must drop it.
	for _, e := range c.transitions {
		if !e.stale() {
			t.Fatalf("resolved transition still live in heap: %+v", e)
		}
	}
	if got := c.NextTransitionEnd(); got != 0 {
		t.Fatalf("NextTransitionEnd = %v after settling, want 0", got)
	}
	if len(c.transitions) != 0 {
		t.Fatalf("stale entries survived the peek: %d", len(c.transitions))
	}
	// Reuse the same machine for a shutdown: new entry, new sequence.
	mustTarget(0)
	if len(c.transitions) != 1 {
		t.Fatalf("shutdown not indexed: %d entries", len(c.transitions))
	}
	if got := c.NextTransitionEnd(); got != 2 {
		t.Fatalf("NextTransitionEnd = %v, want 2", got)
	}
	if c.transitions[0].seq != c.transitions[0].nd.seq {
		t.Fatal("fresh entry carries a stale sequence number")
	}
}
