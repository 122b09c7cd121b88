package cluster

// Differential property tests for the transition min-heap: every indexed
// fleet query (NextTransitionEnd, Reconfiguring, PendingTransition,
// ActiveCounts, Capacity) must agree with the original O(fleet)
// linear scans — retained as unexported *Scan reference implementations —
// after every operation of randomized target/dispatch/tick schedules over
// randomized fleets, including boot-fault schedules and zero-duration
// transition profiles. A twin-cluster test additionally drives a
// withScanIndex cluster (the full baseline code path) in lockstep and
// requires identical energies and counts.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// assertIndexMatchesScan compares every indexed query against its linear-
// scan reference on the same cluster.
func assertIndexMatchesScan(t *testing.T, c *Cluster, step string) {
	t.Helper()
	if got, want := c.Reconfiguring(), c.reconfiguringScan(); got != want {
		t.Fatalf("%s: Reconfiguring = %v, scan says %v", step, got, want)
	}
	if got, want := c.NextTransitionEnd(), c.nextTransitionEndScan(); math.Abs(got-want) > timeTol {
		t.Fatalf("%s: NextTransitionEnd = %v, scan says %v", step, got, want)
	}
	if got, want := c.PendingTransition(), c.pendingTransitionScan(); math.Abs(got-want) > timeTol {
		t.Fatalf("%s: PendingTransition = %v, scan says %v", step, got, want)
	}
	if got, want := c.Capacity(), c.capacityScan(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s: Capacity = %v, scan says %v", step, got, want)
	}
	for _, p := range c.poolList {
		if got, want := c.activeCount(p), activeCountScan(p); got != want {
			t.Fatalf("%s: activeCount(%s) = %d, scan says %d", step, p.arch.Name, got, want)
		}
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
		if !c.scanIndex {
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

// TestDifferentialHeapVsScanTwinClusters drives an indexed cluster and a
// withScanIndex baseline cluster through the identical operation sequence
// and requires the externally observable aggregates — energy, served rate,
// counts, reconfiguration state — to agree. This covers the baseline's
// whole code path (scan-mode provision, dispatch, and tick), not just the
// read queries.
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
			scanC, err := New(catalog, WithBootFaults(0.25, seed), withScanIndex())
			if err != nil {
				t.Fatal(err)
			}
			var heapE, scanE float64
			for i := 0; i < 300; i++ {
				switch rng.Intn(3) {
				case 0:
					target := make(map[string]int)
					for _, a := range catalog {
						target[a.Name] = rng.Intn(15)
					}
					hOn, hOff, herr := setTarget(heapC, target)
					sOn, sOff, serr := setTarget(scanC, target)
					if (herr == nil) != (serr == nil) {
						t.Fatalf("op %d: SetTarget error mismatch: %v vs %v", i, herr, serr)
					}
					if hOn != sOn || hOff != sOff {
						t.Fatalf("op %d: actions (%d,%d) vs (%d,%d)", i, hOn, hOff, sOn, sOff)
					}
				case 1:
					load := rng.Float64() * (heapC.Capacity() + 10)
					hServed, herr := heapC.Distribute(load)
					sServed, serr := scanC.Distribute(load)
					if herr != nil || serr != nil {
						t.Fatalf("op %d: distribute: %v / %v", i, herr, serr)
					}
					if math.Abs(hServed-sServed) > 1e-9 {
						t.Fatalf("op %d: served %v vs %v", i, hServed, sServed)
					}
				default:
					dt := float64(rng.Intn(6))
					he, herr := heapC.Tick(dt)
					se, serr := scanC.Tick(dt)
					if herr != nil || serr != nil {
						t.Fatalf("op %d: tick: %v / %v", i, herr, serr)
					}
					heapE += float64(he)
					scanE += float64(se)
				}
				if got, want := heapC.Reconfiguring(), scanC.Reconfiguring(); got != want {
					t.Fatalf("op %d: Reconfiguring %v vs %v", i, got, want)
				}
				if got, want := heapC.NextTransitionEnd(), scanC.NextTransitionEnd(); math.Abs(got-want) > timeTol {
					t.Fatalf("op %d: NextTransitionEnd %v vs %v", i, got, want)
				}
				if got, want := heapC.ActiveCounts(nil), scanC.ActiveCounts(nil); !slices.Equal(got, want) {
					t.Fatalf("op %d: ActiveCounts %v vs %v", i, got, want)
				}
			}
			if math.Abs(heapE-scanE) > 1e-6 {
				t.Errorf("cumulative energy diverges: heap %v vs scan %v", heapE, scanE)
			}
			hb, sb := heapC.Breakdown(), scanC.Breakdown()
			for _, d := range []float64{
				float64(hb.Transition - sb.Transition),
				float64(hb.Idle - sb.Idle),
				float64(hb.Dynamic - sb.Dynamic),
			} {
				if math.Abs(d) > 1e-6 {
					t.Errorf("breakdown diverges: heap %v vs scan %v", hb, sb)
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
