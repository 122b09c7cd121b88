package profile

import "time"

// This file holds the two built-in profile sets:
//
//   - PaperMachines: the five real architectures of Table I, with the exact
//     constants the paper measured on Grid'5000 / WattsUp?Pro.
//   - Illustrative: the four synthetic architectures A–D used by Figures 1
//     and 2 to explain Steps 2–4. The paper gives only their qualitative
//     shape (A strongest, D dominated by A; Medium threshold near rate 150,
//     "up to five Little nodes" before it), so the constants below are
//     chosen to reproduce those stated properties exactly.

// Paper architecture codenames (Table I).
const (
	Paravance  = "paravance"  // x86 Intel Xeon E5-2630v3, 2x8 cores
	Taurus     = "taurus"     // x86 Intel Xeon E5-2630, 2x6 cores
	Graphene   = "graphene"   // x86 Intel Xeon X3440, 1x4 cores
	Chromebook = "chromebook" // ARM Cortex-A15, 1x2 cores
	Raspberry  = "raspberry"  // ARM Cortex-A7, 1x4 cores (Pi 2B+)
)

// PaperMachines returns the Table I profiles in the paper's row order
// (decreasing MaxPerf). The slice is freshly allocated on every call so
// callers may mutate it.
func PaperMachines() []Arch {
	return []Arch{
		{
			Name: Paravance, MaxPerf: 1331,
			IdlePower: 69.9, MaxPower: 200.5,
			OnDuration: 189 * time.Second, OnEnergy: 21341,
			OffDuration: 10 * time.Second, OffEnergy: 657,
		},
		{
			Name: Taurus, MaxPerf: 860,
			IdlePower: 95.8, MaxPower: 223.7,
			OnDuration: 164 * time.Second, OnEnergy: 20628,
			OffDuration: 11 * time.Second, OffEnergy: 1173,
		},
		{
			Name: Graphene, MaxPerf: 272,
			IdlePower: 47.7, MaxPower: 123.8,
			OnDuration: 71 * time.Second, OnEnergy: 4940,
			OffDuration: 16 * time.Second, OffEnergy: 760,
		},
		{
			Name: Chromebook, MaxPerf: 33,
			IdlePower: 4, MaxPower: 7.6,
			OnDuration: 12 * time.Second, OnEnergy: 49.3,
			OffDuration: 21 * time.Second, OffEnergy: 77.6,
		},
		{
			Name: Raspberry, MaxPerf: 9,
			IdlePower: 3.1, MaxPower: 3.7,
			OnDuration: 16 * time.Second, OnEnergy: 40.5,
			OffDuration: 14 * time.Second, OffEnergy: 36.2,
		},
	}
}

// Illustrative returns the four architectures A, B, C, D of Figures 1–2.
// The paper gives only their qualitative behaviour; these constants are
// chosen so every stated property holds exactly:
//   - decreasing MaxPerf order A > D > B > C;
//   - D's MaxPower (150 W) exceeds A's (130 W) despite lower performance,
//     so Step 2 discards D;
//   - with A=Big, B=Medium, C=Little: the Medium minimum-utilization
//     threshold is 150 (B(150) = 50 W = five full Little nodes), and below
//     it the optimal combination uses up to five Little nodes;
//   - Step 3 finds Big's threshold right at Medium's maximum performance
//     rate (A(300) = 95 W dips under the Medium fleet's post-300 idle jump
//     to 100 W), the non-optimal crossing producing the power jump the
//     paper describes;
//   - Step 4, comparing against Medium+Little combinations, pushes Big's
//     threshold substantially higher (~533).
func Illustrative() []Arch {
	return []Arch{
		{
			Name: "A", MaxPerf: 1000,
			IdlePower: 80, MaxPower: 130,
			OnDuration: 150 * time.Second, OnEnergy: 15000,
			OffDuration: 10 * time.Second, OffEnergy: 800,
		},
		{
			Name: "B", MaxPerf: 300,
			IdlePower: 40, MaxPower: 60,
			OnDuration: 60 * time.Second, OnEnergy: 3000,
			OffDuration: 10 * time.Second, OffEnergy: 400,
		},
		{
			Name: "C", MaxPerf: 30,
			IdlePower: 3, MaxPower: 10,
			OnDuration: 15 * time.Second, OnEnergy: 60,
			OffDuration: 10 * time.Second, OffEnergy: 40,
		},
		{
			Name: "D", MaxPerf: 700,
			IdlePower: 90, MaxPower: 150,
			OnDuration: 120 * time.Second, OnEnergy: 14000,
			OffDuration: 12 * time.Second, OffEnergy: 900,
		},
	}
}
