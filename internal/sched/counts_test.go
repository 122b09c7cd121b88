package sched

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/trace"
)

// blockTrace settles at 80 for the first 400 s, then cycles through loads
// held for 30 s each until n seconds. The 20 s look-ahead window of the
// fast pair sees each block's own load for its first 10 s, so predictions
// take every cycled value.
func blockTrace(t *testing.T, n int, cycle ...float64) *trace.Trace {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 80
		if i >= 400 {
			vals[i] = cycle[(i-400)/30%len(cycle)]
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDecisionPathAllocatesNothing: once the fleet has settled, a quiescent
// DecideSpan and a Step whose decision does not act allocate nothing. Node
// counts travel as reused vectors, never as per-decision maps; the
// overhead-aware case also runs the policy helpers on every evaluation,
// and the malleability case pads the target every time it sees the big
// node alone.
func TestDecisionPathAllocatesNothing(t *testing.T) {
	padded := app.StatelessWebServer()
	padded.Malleability = app.Malleability{MinInstances: 2}
	cases := []struct {
		name   string
		cycle  []float64
		mutate func(*Config)
		// skips and pads report whether the measured evaluations must
		// skip reconfigurations and adjust targets.
		skips, pads bool
	}{
		// 70–90 all map to one partially loaded big node.
		{name: "no-op", cycle: []float64{70, 90, 80, 75}},
		// Littles are ideal at 25–35, but a 10 s horizon cannot amortize
		// the switch; at 80–90 the lone big node is padded with a little.
		{name: "overhead-aware", cycle: []float64{30, 85, 25, 90, 35, 80}, skips: true, pads: true,
			mutate: func(c *Config) { c.App, c.OverheadAware, c.AmortizeSeconds = &padded, true, 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 2200
			tr := blockTrace(t, n, tc.cycle...)
			sc, _ := rigWith(t, tr, tc.mutate)
			// One pass settles the fleet and fills the planner's memo for
			// every predicted rate.
			runAll(t, sc, tr)
			decisions, skipped, adjusted := sc.Decisions(), sc.Skipped(), sc.Adjustments()
			u := 400
			step := func() {
				if _, err := sc.Step(u, tr.At(u), 1); err != nil {
					t.Fatal(err)
				}
				if u++; u == n {
					u = 400
				}
			}
			if a := testing.AllocsPerRun(2*(n-400), step); a != 0 {
				t.Errorf("Step allocates %v times per no-op decision", a)
			}
			span := func() {
				_, next, err := sc.DecideSpan(400, n)
				if err != nil {
					t.Fatal(err)
				}
				if next != n {
					t.Fatalf("DecideSpan(400, %d) acts at %d", n, next)
				}
			}
			if a := testing.AllocsPerRun(20, span); a != 0 {
				t.Errorf("quiescent DecideSpan allocates %v times", a)
			}
			if sc.Decisions() != decisions {
				t.Fatalf("the measured evaluations decided: %d decisions, %d before", sc.Decisions(), decisions)
			}
			if got := sc.Skipped() > skipped; got != tc.skips {
				t.Errorf("skipped rose %v, want %v (%d → %d)", got, tc.skips, skipped, sc.Skipped())
			}
			if got := sc.Adjustments() > adjusted; got != tc.pads {
				t.Errorf("adjustments rose %v, want %v (%d → %d)", got, tc.pads, adjusted, sc.Adjustments())
			}
		})
	}
}

// lookupFunc adapts a function to bml.Lookup.
type lookupFunc func(rate float64) bml.Combination

func (f lookupFunc) At(rate float64) bml.Combination { return f(rate) }

// TestForeignArchitectureFails: a combination with nodes on an
// architecture the cluster does not host is an error from both entry
// points — whether it is decided at once or first met by DecideSpan's
// forward scan — and never a silent no-op.
func TestForeignArchitectureFails(t *testing.T) {
	archs := fastArchs()
	alien := profile.Arch{Name: "alien", MaxPerf: 50, IdlePower: 5, MaxPower: 30}
	foreign := map[string]bml.Combination{
		"alone":       {Slots: []bml.Slot{{Arch: alien, Full: 1}}},
		"after-big":   {Slots: []bml.Slot{{Arch: archs[0], Full: 1}, {Arch: alien, Full: 1}}},
		"before-big":  {Slots: []bml.Slot{{Arch: alien, PartialLoad: 3}, {Arch: archs[0], Full: 1}}},
		"in-big-slot": {Slots: []bml.Slot{{Arch: alien, Full: 2}, {Arch: archs[1]}}},
	}
	hosted := bml.Combination{Slots: []bml.Slot{{Arch: archs[0], Full: 1}, {Arch: archs[1]}}}
	for name, combo := range foreign {
		// Low load gets the hosted combination, high load the foreign one:
		// the scan meets the foreign one after the first decision settles.
		lookup := lookupFunc(func(rate float64) bml.Combination {
			if rate > 50 {
				return combo
			}
			return hosted
		})
		vals := make([]float64, 300)
		for i := range vals {
			vals[i] = 40
			if i >= 150 {
				vals[i] = 90
			}
		}
		tr, err := trace.New(vals)
		if err != nil {
			t.Fatal(err)
		}
		withLookup := func(c *Config) { c.Table = lookup }

		sc, _ := rigWith(t, tr, withLookup)
		if _, err := sc.Step(200, 90, 1); err == nil || !strings.Contains(err.Error(), `"alien"`) {
			t.Errorf("%s: Step error %v, want one naming the foreign architecture", name, err)
		}
		sc, _ = rigWith(t, tr, withLookup)
		if _, _, err := sc.DecideSpan(200, 300); err == nil || !strings.Contains(err.Error(), `"alien"`) {
			t.Errorf("%s: DecideSpan error %v, want one naming the foreign architecture", name, err)
		}
		// Driven span by span from the start, the run must still fail.
		sc, _ = rigWith(t, tr, withLookup)
		var failed error
		for tt := 0; tt < tr.Len() && failed == nil; {
			var next int
			_, next, failed = sc.DecideSpan(tt, tr.Len())
			if w := sc.NextWake(); w > 0 {
				next = min(next, tt+int(w+0.5))
			}
			next = max(next, tt+1)
			if _, err := sc.cl.Tick(float64(next - tt)); err != nil {
				t.Fatal(err)
			}
			tt = next
		}
		if failed == nil {
			t.Errorf("%s: span-driven run over a foreign combination never failed", name)
		}
	}
}

// TestZeroSlotOnForeignArchitectureIgnored: a slot that names an unhosted
// architecture but uses no node of it asks nothing of the cluster, so it
// is accepted, as a map of the combination's non-zero counts would be.
func TestZeroSlotOnForeignArchitectureIgnored(t *testing.T) {
	archs := fastArchs()
	alien := profile.Arch{Name: "alien", MaxPerf: 50, IdlePower: 5, MaxPower: 30}
	combo := bml.Combination{Slots: []bml.Slot{{Arch: alien}, {Arch: archs[0], Full: 1}}}
	tr := constTrace(t, 90, 50)
	sc, cl := rigWith(t, tr, func(c *Config) {
		c.Table = lookupFunc(func(float64) bml.Combination { return combo })
	})
	if _, err := sc.Step(0, 90, 1); err != nil {
		t.Fatal(err)
	}
	if got := cl.ActiveCounts(nil); got[0] != 1 || got[1] != 0 {
		t.Errorf("active counts %v, want one big node", got)
	}
	if got := sc.LastTarget(); len(got) != 1 || got["big"] != 1 {
		t.Errorf("LastTarget %v, want map[big:1]", got)
	}
}
