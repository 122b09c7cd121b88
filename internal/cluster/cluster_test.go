package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/profile"
)

// fastArchs returns a Big/Little pair with short transitions for tests.
func fastArchs() []profile.Arch {
	return []profile.Arch{
		{
			Name: "big", MaxPerf: 100, IdlePower: 20, MaxPower: 80,
			OnDuration: 10 * time.Second, OnEnergy: 500,
			OffDuration: 2 * time.Second, OffEnergy: 50,
		},
		{
			Name: "little", MaxPerf: 10, IdlePower: 2, MaxPower: 5,
			OnDuration: 3 * time.Second, OnEnergy: 15,
			OffDuration: 1 * time.Second, OffEnergy: 2,
		},
	}
}

func mustCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := New(fastArchs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// setTarget is SetTarget with the target keyed by architecture name;
// architectures the map does not name get zero.
func setTarget(c *Cluster, target map[string]int) (on, off int, err error) {
	vec := make([]int, len(c.archs))
	for name, n := range target {
		i := slices.IndexFunc(c.archs, func(a profile.Arch) bool { return a.Name == name })
		if i < 0 {
			return 0, 0, fmt.Errorf("test: unknown architecture %q", name)
		}
		vec[i] = n
	}
	return c.SetTarget(vec)
}

// byName keys a per-architecture count vector by architecture name,
// omitting zero counts.
func byName(c *Cluster, counts []int) map[string]int {
	out := make(map[string]int)
	for i, n := range counts {
		if n > 0 {
			out[c.archs[i].Name] = n
		}
	}
	return out
}

// settle ticks until no transition is pending.
func settle(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; c.Reconfiguring(); i++ {
		if i > 1000 {
			t.Fatal("cluster never settled")
		}
		if _, err := c.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty arch list accepted")
	}
	bad := fastArchs()
	bad[0].MaxPerf = -1
	if _, err := New(bad); err == nil {
		t.Error("invalid profile accepted")
	}
	dup := []profile.Arch{fastArchs()[0], fastArchs()[0]}
	if _, err := New(dup); err == nil {
		t.Error("duplicate arch accepted")
	}
}

func TestArchitecturesOrderedBigToLittle(t *testing.T) {
	// Input deliberately Little-first.
	archs := fastArchs()
	c, err := New([]profile.Arch{archs[1], archs[0]})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Architectures()
	if got[0].Name != "big" || got[1].Name != "little" {
		t.Errorf("order = %v", got)
	}
}

func TestSetTargetBootsMachines(t *testing.T) {
	c := mustCluster(t)
	on, off, err := setTarget(c, map[string]int{"big": 2, "little": 1})
	if err != nil {
		t.Fatal(err)
	}
	if on != 3 || off != 0 {
		t.Errorf("on=%d off=%d, want 3/0", on, off)
	}
	if !c.Reconfiguring() {
		t.Error("not reconfiguring during boots")
	}
	// Booting machines count as active but give no capacity yet.
	if got := byName(c, c.ActiveCounts(nil)); got["big"] != 2 || got["little"] != 1 {
		t.Errorf("ActiveCounts = %v", got)
	}
	if c.Capacity() != 0 {
		t.Errorf("Capacity = %v during boot, want 0", c.Capacity())
	}
	settle(t, c)
	if c.Capacity() != 210 {
		t.Errorf("Capacity = %v after boot, want 210", c.Capacity())
	}
	on2 := []int{len(c.poolList[0].on), len(c.poolList[1].on)}
	if got := byName(c, on2); got["big"] != 2 || got["little"] != 1 {
		t.Errorf("On machines = %v", got)
	}
}

func TestSetTargetSwitchesOffLeastLoadedFirst(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 2})
	settle(t, c)
	if _, err := c.Distribute(150); err != nil { // one full, one at 50
		t.Fatal(err)
	}
	if _, off, err := setTarget(c, map[string]int{"big": 1}); err != nil || off != 1 {
		t.Fatalf("off=%d err=%v", off, err)
	}
	// The surviving On machine should be the fully loaded one.
	var onLoad float64
	for _, m := range c.Machines() {
		if m.State() == machine.On {
			onLoad = m.Load()
		}
	}
	if onLoad != 100 {
		t.Errorf("survivor load = %v, want the full node kept", onLoad)
	}
}

func TestSetTargetValidation(t *testing.T) {
	c := mustCluster(t)
	for _, target := range [][]int{nil, {1}, {1, 0, 0}} {
		if _, _, err := c.SetTarget(target); err == nil {
			t.Errorf("target %v for 2 architectures accepted", target)
		}
	}
	if _, _, err := c.SetTarget([]int{-1, 0}); err == nil {
		t.Error("negative target accepted")
	}
	if c.Reconfiguring() || len(c.Machines()) != 0 {
		t.Error("a rejected target switched machines")
	}
}

func TestSetTargetReusesOffMachines(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1})
	settle(t, c)
	setTarget(c, map[string]int{"big": 0})
	settle(t, c)
	setTarget(c, map[string]int{"big": 1})
	settle(t, c)
	if n := len(c.Machines()); n != 1 {
		t.Errorf("machine objects = %d, want 1 (reuse)", n)
	}
}

func TestShuttingDownMachinesUnavailableUntilOff(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1})
	settle(t, c)
	setTarget(c, map[string]int{"big": 0}) // begins 2 s shutdown
	// Immediately request one again: the shutting-down node cannot be
	// reused, so a new machine boots.
	on, _, err := setTarget(c, map[string]int{"big": 1})
	if err != nil {
		t.Fatal(err)
	}
	if on != 1 {
		t.Errorf("switch-ons = %d, want a fresh boot", on)
	}
	if len(c.Machines()) != 2 {
		t.Errorf("machines = %d, want 2", len(c.Machines()))
	}
}

func TestInventoryCap(t *testing.T) {
	c := mustCluster(t, WithInventory(map[string]int{"big": 1}))
	if _, _, err := setTarget(c, map[string]int{"big": 1}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if _, _, err := setTarget(c, map[string]int{"big": 2}); err == nil {
		t.Error("target beyond inventory accepted")
	}
}

func TestDistributeFillsBiggestFirst(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1, "little": 2})
	settle(t, c)
	served, err := c.Distribute(105)
	if err != nil {
		t.Fatal(err)
	}
	if served != 105 {
		t.Errorf("served = %v", served)
	}
	var bigLoad, littleTotal float64
	for _, p := range c.poolList {
		for _, nd := range p.on {
			if p.arch.Name == "big" {
				bigLoad = nd.m.Load()
			} else {
				littleTotal += nd.m.Load()
			}
		}
	}
	if bigLoad != 100 {
		t.Errorf("big load = %v, want full 100 first", bigLoad)
	}
	if littleTotal != 5 {
		t.Errorf("little total = %v, want remainder 5", littleTotal)
	}
}

func TestDistributeShortfall(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"little": 1})
	settle(t, c)
	served, err := c.Distribute(50)
	if err != nil {
		t.Fatal(err)
	}
	if served != 10 {
		t.Errorf("served = %v, want capacity 10", served)
	}
}

func TestDistributeValidation(t *testing.T) {
	c := mustCluster(t)
	if _, err := c.Distribute(-1); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := c.Distribute(math.NaN()); err == nil {
		t.Error("NaN load accepted")
	}
}

func TestDistributeClearsStaleLoads(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1})
	settle(t, c)
	c.Distribute(80)
	c.Distribute(0)
	for _, m := range c.Machines() {
		if m.Load() != 0 {
			t.Errorf("stale load %v on %v", m.Load(), m)
		}
	}
}

func TestTickEnergyAccounting(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1})
	var boot float64
	for i := 0; i < 10; i++ {
		e, err := c.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		boot += float64(e)
	}
	if math.Abs(boot-500) > 1e-9 {
		t.Errorf("boot energy = %v, want 500", boot)
	}
	c.Distribute(100)
	e, err := c.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-80) > 1e-9 {
		t.Errorf("full-load second = %v J, want 80", e)
	}
}

func TestCurrentPowerAggregates(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1, "little": 1})
	settle(t, c)
	c.Distribute(0)
	if got := float64(c.CurrentPower()); math.Abs(got-22) > 1e-9 {
		t.Errorf("idle fleet power = %v, want 22", got)
	}
}

func TestPendingTransition(t *testing.T) {
	c := mustCluster(t)
	if c.PendingTransition() != 0 {
		t.Error("idle cluster reports pending transition")
	}
	setTarget(c, map[string]int{"big": 1, "little": 1})
	if got := c.PendingTransition(); got != 10 {
		t.Errorf("PendingTransition = %v, want longest boot 10", got)
	}
	c.Tick(4)
	if got := c.PendingTransition(); got != 6 {
		t.Errorf("after 4 s: %v, want 6", got)
	}
}

func TestActiveCountsVector(t *testing.T) {
	c := mustCluster(t)
	if got := c.ActiveCounts(nil); !slices.Equal(got, []int{0, 0}) {
		t.Errorf("empty cluster counts %v, want [0 0]", got)
	}
	setTarget(c, map[string]int{"big": 1, "little": 2})
	// Booting machines count as active.
	dst := make([]int, 0, 4)
	got := c.ActiveCounts(dst)
	if !slices.Equal(got, []int{1, 2}) {
		t.Errorf("booting counts %v, want [1 2] (Big→Little)", got)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("ActiveCounts did not reuse the caller's vector")
	}
	settle(t, c)
	setTarget(c, map[string]int{"big": 1})
	settle(t, c)
	// A stale longer vector is cut to one entry per architecture.
	if got := c.ActiveCounts([]int{9, 9, 9}); !slices.Equal(got, []int{1, 0}) {
		t.Errorf("settled counts %v, want [1 0]", got)
	}
}

func TestTickPropagatesMachineErrors(t *testing.T) {
	c := mustCluster(t)
	if _, err := c.Tick(-1); err == nil {
		t.Error("negative dt accepted")
	}
}

func TestClusterBreakdownAggregates(t *testing.T) {
	c := mustCluster(t)
	setTarget(c, map[string]int{"big": 1})
	settle(t, c) // 500 J transition
	c.Distribute(100)
	c.Tick(10) // 10 s at 80 W: 200 J idle + 600 J dynamic
	b := c.Breakdown()
	if math.Abs(float64(b.Transition)-500) > 1e-9 {
		t.Errorf("transition = %v, want 500", b.Transition)
	}
	if math.Abs(float64(b.Idle)-200) > 1e-9 {
		t.Errorf("idle = %v, want 200", b.Idle)
	}
	if math.Abs(float64(b.Dynamic)-600) > 1e-9 {
		t.Errorf("dynamic = %v, want 600", b.Dynamic)
	}
}

func TestClusterBootFaults(t *testing.T) {
	// With probability 1 every boot fails: the cluster never gains
	// capacity, but each attempt consumes boot energy.
	c := mustCluster(t, WithBootFaults(1, 3))
	setTarget(c, map[string]int{"big": 1})
	settle(t, c)
	if c.Capacity() != 0 {
		t.Errorf("capacity = %v after guaranteed boot failure", c.Capacity())
	}
	b := c.Breakdown()
	if float64(b.Transition) != 500 {
		t.Errorf("failed boot energy = %v, want 500", b.Transition)
	}
	// Probability 0 behaves like no option at all.
	c2 := mustCluster(t, WithBootFaults(0, 3))
	setTarget(c2, map[string]int{"big": 1})
	settle(t, c2)
	if c2.Capacity() != 100 {
		t.Errorf("capacity = %v with zero fault probability", c2.Capacity())
	}
}
