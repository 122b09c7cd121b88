package profile

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func validArch() Arch {
	return Arch{
		Name: "test", MaxPerf: 100,
		IdlePower: 10, MaxPower: 50,
		OnDuration: 30 * time.Second, OnEnergy: 900,
		OffDuration: 5 * time.Second, OffEnergy: 100,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validArch().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Arch)
	}{
		{"empty name", func(a *Arch) { a.Name = "" }},
		{"zero perf", func(a *Arch) { a.MaxPerf = 0 }},
		{"negative perf", func(a *Arch) { a.MaxPerf = -1 }},
		{"nan perf", func(a *Arch) { a.MaxPerf = math.NaN() }},
		{"inf perf", func(a *Arch) { a.MaxPerf = math.Inf(1) }},
		{"idle above max", func(a *Arch) { a.IdlePower = 60 }},
		{"negative idle", func(a *Arch) { a.IdlePower = -1 }},
		{"zero max power", func(a *Arch) { a.IdlePower = 0; a.MaxPower = 0 }},
		{"negative on duration", func(a *Arch) { a.OnDuration = -time.Second }},
		{"negative off duration", func(a *Arch) { a.OffDuration = -time.Second }},
		{"negative on energy", func(a *Arch) { a.OnEnergy = -1 }},
		{"negative off energy", func(a *Arch) { a.OffEnergy = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := validArch()
			c.mutate(&a)
			if err := a.Validate(); err == nil {
				t.Errorf("invalid profile accepted")
			}
		})
	}
}

func TestPowerAtEndpointsAndClamp(t *testing.T) {
	a := validArch()
	if got := a.PowerAt(0); got != a.IdlePower {
		t.Errorf("PowerAt(0) = %v, want idle", got)
	}
	if got := a.PowerAt(a.MaxPerf); got != a.MaxPower {
		t.Errorf("PowerAt(max) = %v, want max", got)
	}
	if got := a.PowerAt(-10); got != a.IdlePower {
		t.Errorf("PowerAt(-10) = %v, want idle clamp", got)
	}
	if got := a.PowerAt(1e9); got != a.MaxPower {
		t.Errorf("PowerAt(huge) = %v, want max clamp", got)
	}
	if got := a.PowerAt(50); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("PowerAt(50) = %v, want 30", got)
	}
}

func TestNodesFor(t *testing.T) {
	a := validArch() // MaxPerf 100
	cases := []struct {
		rate float64
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {100, 1}, {100.5, 2}, {250, 3}, {300, 3},
	}
	for _, c := range cases {
		if got := a.NodesFor(c.rate); got != c.want {
			t.Errorf("NodesFor(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestFleetPowerAt(t *testing.T) {
	a := validArch() // idle 10, max 50, perf 100
	if got := a.FleetPowerAt(0); got != 0 {
		t.Errorf("FleetPowerAt(0) = %v, want 0 (no nodes)", got)
	}
	if got := a.FleetPowerAt(100); got != 50 {
		t.Errorf("FleetPowerAt(100) = %v, want one full node 50", got)
	}
	// 250 = 2 full + one at 50 -> 100 + 30.
	if got := a.FleetPowerAt(250); math.Abs(float64(got)-130) > 1e-9 {
		t.Errorf("FleetPowerAt(250) = %v, want 130", got)
	}
	// Idle jump just after a full-node boundary.
	justAfter := a.FleetPowerAt(100.001)
	if float64(justAfter) < 59.9 {
		t.Errorf("FleetPowerAt(100+eps) = %v, want ~60 (full + idle)", justAfter)
	}
}

func TestFleetPowerMonotoneProperty(t *testing.T) {
	a := validArch()
	f := func(r1, r2 float64) bool {
		r1 = math.Abs(math.Mod(r1, 1000))
		r2 = math.Abs(math.Mod(r2, 1000))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		// Fleet power is not strictly monotone pointwise (idle jumps), but
		// serving more load never costs less than the full-node floor of
		// the smaller load.
		floor := math.Floor(r1/a.MaxPerf) * float64(a.MaxPower)
		return float64(a.FleetPowerAt(r2)) >= floor-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelAgreesWithPowerAt(t *testing.T) {
	a := validArch()
	m := a.Model()
	for r := 0.0; r <= a.MaxPerf; r += 7 {
		if got, want := m.PowerAt(r), a.PowerAt(r); math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("Model().PowerAt(%v) = %v, want %v", r, got, want)
		}
	}
	if m.MaxPerf() != a.MaxPerf {
		t.Errorf("Model().MaxPerf = %v, want %v", m.MaxPerf(), a.MaxPerf)
	}
}

func TestPaperMachinesMatchTableI(t *testing.T) {
	machines := PaperMachines()
	if len(machines) != 5 {
		t.Fatalf("PaperMachines returned %d profiles, want 5", len(machines))
	}
	type row struct {
		name      string
		maxPerf   float64
		idle, max float64
		onS, offS float64
		onJ, offJ float64
	}
	want := []row{
		{Paravance, 1331, 69.9, 200.5, 189, 10, 21341, 657},
		{Taurus, 860, 95.8, 223.7, 164, 11, 20628, 1173},
		{Graphene, 272, 47.7, 123.8, 71, 16, 4940, 760},
		{Chromebook, 33, 4, 7.6, 12, 21, 49.3, 77.6},
		{Raspberry, 9, 3.1, 3.7, 16, 14, 40.5, 36.2},
	}
	for i, w := range want {
		m := machines[i]
		if m.Name != w.name {
			t.Errorf("row %d name = %q, want %q", i, m.Name, w.name)
		}
		if m.MaxPerf != w.maxPerf {
			t.Errorf("%s MaxPerf = %v, want %v", w.name, m.MaxPerf, w.maxPerf)
		}
		if float64(m.IdlePower) != w.idle || float64(m.MaxPower) != w.max {
			t.Errorf("%s power = %v-%v, want %v-%v", w.name, m.IdlePower, m.MaxPower, w.idle, w.max)
		}
		if m.OnDuration.Seconds() != w.onS || m.OffDuration.Seconds() != w.offS {
			t.Errorf("%s durations = %v/%v, want %vs/%vs", w.name, m.OnDuration, m.OffDuration, w.onS, w.offS)
		}
		if float64(m.OnEnergy) != w.onJ || float64(m.OffEnergy) != w.offJ {
			t.Errorf("%s energies = %v/%v, want %v/%v", w.name, m.OnEnergy, m.OffEnergy, w.onJ, w.offJ)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestPaperMachinesFreshCopies(t *testing.T) {
	a := PaperMachines()
	a[0].MaxPerf = 1
	b := PaperMachines()
	if b[0].MaxPerf == 1 {
		t.Error("PaperMachines shares state between calls")
	}
}

func TestIllustrativeProperties(t *testing.T) {
	archs := Illustrative()
	if len(archs) != 4 {
		t.Fatalf("Illustrative returned %d profiles, want 4", len(archs))
	}
	byName := map[string]Arch{}
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		byName[a.Name] = a
	}
	a, b, c, d := byName["A"], byName["B"], byName["C"], byName["D"]
	// Ordering A > D > B > C by performance.
	if !(a.MaxPerf > d.MaxPerf && d.MaxPerf > b.MaxPerf && b.MaxPerf > c.MaxPerf) {
		t.Error("illustrative performance ordering violated")
	}
	// D dominated by A: lower perf, higher max power.
	if !(d.MaxPerf < a.MaxPerf && d.MaxPower > a.MaxPower) {
		t.Error("D must be dominated by A for the Step 2 example")
	}
	// Medium threshold construction: B at rate 150 costs the same as five
	// full Little nodes.
	if got, want := float64(b.PowerAt(150)), 5*float64(c.MaxPower); math.Abs(got-want) > 1e-9 {
		t.Errorf("B(150) = %v, want %v (= 5 full Little nodes)", got, want)
	}
	// Step 3 construction: A at Medium's max perf dips under the Medium
	// fleet's post-boundary idle jump.
	fleetJump := float64(b.MaxPower + b.IdlePower)
	if got := float64(a.PowerAt(b.MaxPerf)); got > fleetJump {
		t.Errorf("A(maxPerf_B) = %v, want <= %v for the Step 3 crossing", got, fleetJump)
	}
	if got := float64(a.PowerAt(b.MaxPerf)); got <= float64(b.MaxPower) {
		t.Errorf("A(maxPerf_B) = %v should exceed one full Medium (%v) to show the jump", got, b.MaxPower)
	}
}

func TestCompareBigToLittleSortsByPerf(t *testing.T) {
	sorted := Illustrative()
	slices.SortFunc(sorted, CompareBigToLittle)
	var names []string
	for _, a := range sorted {
		names = append(names, a.Name)
	}
	if got := strings.Join(names, ","); got != "A,D,B,C" {
		t.Errorf("Big→Little order = %s, want A,D,B,C (decreasing MaxPerf)", got)
	}
}

func TestCompareBigToLittleTieBreaksByName(t *testing.T) {
	x, y := validArch(), validArch()
	x.Name, y.Name = "zeta", "alpha"
	if CompareBigToLittle(y, x) >= 0 || CompareBigToLittle(x, y) <= 0 {
		t.Error("equal MaxPerf does not break the tie by ascending name")
	}
}
