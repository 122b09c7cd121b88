package sched

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/predict"
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
			// One pass settles the fleet.
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

// fixedLookup is a bml.Lookup over the given candidates that asks for no
// node at any rate.
type fixedLookup []profile.Arch

func (l fixedLookup) Candidates() []profile.Arch { return l }

func (l fixedLookup) Counts(rate float64, dst []int) []int { return make([]int, len(l)) }

// TestForeignArchitectureFails: a lookup whose candidates are not the
// cluster's architectures in the cluster's Big→Little order — one the
// cluster does not host, one missing, or the order swapped — fails at
// construction with an error naming both lists, before any decision could
// write its counts into the wrong architecture.
func TestForeignArchitectureFails(t *testing.T) {
	archs := fastArchs()
	alien := profile.Arch{Name: "alien", MaxPerf: 50, IdlePower: 5, MaxPower: 30}
	foreign := map[string]fixedLookup{
		"alone":         {alien},
		"after-big":     {archs[0], alien},
		"before-big":    {alien, archs[0], archs[1]},
		"in-big-slot":   {alien, archs[1]},
		"missing":       {archs[0]},
		"swapped-order": {archs[1], archs[0]},
	}
	tr := constTrace(t, 90, 50)
	for name, lookup := range foreign {
		cl, err := cluster.New(archs)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(Config{Table: lookup, Predictor: predict.NewOracle(tr), Cluster: cl})
		if err == nil || !strings.Contains(err.Error(), `["big" "little"]`) {
			t.Errorf("%s: New error %v, want one naming the cluster's architectures", name, err)
		}
		if name != "missing" && name != "swapped-order" && (err == nil || !strings.Contains(err.Error(), `"alien"`)) {
			t.Errorf("%s: New error %v, want one naming the foreign architecture", name, err)
		}
	}
	cl, err := cluster.New(archs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Table: fixedLookup(archs), Predictor: predict.NewOracle(tr), Cluster: cl}); err != nil {
		t.Errorf("New with the cluster's own architectures: %v", err)
	}
}
