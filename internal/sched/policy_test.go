package sched

import (
	"math"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/predict"
	"repro/internal/trace"
)

// rigWith builds a scheduler over the fast Big/Little pair with extra
// config applied.
func rigWith(t *testing.T, tr *trace.Trace, mutate func(*Config)) (*Scheduler, *cluster.Cluster) {
	t.Helper()
	planner, err := bml.NewPlanner(fastArchs(), bml.WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	window, err := Window(planner.Candidates(), DefaultWindowFactor)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict.NewLookaheadMax(tr, window)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(planner.Candidates())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Table:     planner.Lookup(tr.Max() * 2),
		Predictor: pred,
		Cluster:   cl,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc, cl
}

func runAll(t *testing.T, sc *Scheduler, tr *trace.Trace) {
	t.Helper()
	for tt := 0; tt < tr.Len(); tt++ {
		if _, err := sc.Step(tt, tr.At(tt), 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOverheadAwareSkipsUnamortizableSwitch(t *testing.T) {
	// Load alternates between 95 and 100 every 30 s. The ideal combination
	// flips between configurations whose steady-state power differs by a
	// couple of watts, but the big machine's boot costs 500 J — far more
	// than the saving over a 60 s horizon. The overhead-aware scheduler
	// must settle instead of flapping.
	vals := make([]float64, 600)
	for i := range vals {
		if (i/30)%2 == 0 {
			vals[i] = 95
		} else {
			vals[i] = 100.5 // needs big + a sliver of little
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := rigWith(t, tr, nil)
	aware, _ := rigWith(t, tr, func(c *Config) {
		c.OverheadAware = true
		c.AmortizeSeconds = 5 // saving ~2 W × 5 s < round-trip 17 J
	})
	runAll(t, plain, tr)
	runAll(t, aware, tr)
	if plain.Decisions() <= aware.Decisions() {
		t.Errorf("overhead-aware did not reduce decisions: plain=%d aware=%d",
			plain.Decisions(), aware.Decisions())
	}
	if aware.Skipped() == 0 {
		t.Error("no reconfigurations skipped despite flapping load")
	}
}

func TestOverheadAwareNeverBlocksCapacityGrowth(t *testing.T) {
	// Step from 5 to 300 req/s: even with an absurdly short amortization
	// horizon the scheduler must still grow the fleet (QoS wins).
	vals := make([]float64, 300)
	for i := range vals {
		if i < 100 {
			vals[i] = 5
		} else {
			vals[i] = 300
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	sc, cl := rigWith(t, tr, func(c *Config) {
		c.OverheadAware = true
		c.AmortizeSeconds = 1 // nothing amortizes in one second
	})
	lost := 0.0
	for tt := 0; tt < tr.Len(); tt++ {
		rep, err := sc.Step(tt, tr.At(tt), 1)
		if err != nil {
			t.Fatal(err)
		}
		if tt >= 20 {
			lost += tr.At(tt) - rep.Served
		}
	}
	if lost > 0 {
		t.Errorf("overhead-aware policy starved capacity growth: lost %v", lost)
	}
	if capacity(t, cl) < 300 {
		t.Errorf("final capacity %v below demand", capacity(t, cl))
	}
}

func TestMalleabilityMinInstancesPadsLittles(t *testing.T) {
	tr := constTrace(t, 50, 200) // ideal combo: one big node
	spec := app.StatelessWebServer()
	spec.Malleability = app.Malleability{MinInstances: 3}
	sc, cl := rigWith(t, tr, func(c *Config) { c.App = &spec })
	runAll(t, sc, tr)
	counts := onCounts(t, cl)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total < 3 {
		t.Errorf("min-instances not enforced: %v", counts)
	}
	if counts["little"] < 2 {
		t.Errorf("padding should use little nodes: %v", counts)
	}
	if sc.Adjustments() == 0 {
		t.Error("no adjustments recorded")
	}
}

func TestMalleabilityMaxInstancesConsolidates(t *testing.T) {
	// 80 req/s would ideally use 6 little nodes + remainder, exceeding a
	// 2-instance bound; consolidation must pick one big node instead.
	tr := constTrace(t, 80, 200)
	spec := app.StatelessWebServer()
	spec.Malleability = app.Malleability{MaxInstances: 2}
	sc, cl := rigWith(t, tr, func(c *Config) { c.App = &spec })
	runAll(t, sc, tr)
	counts := onCounts(t, cl)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total > 2 {
		t.Errorf("max-instances violated: %v", counts)
	}
	if counts["big"] != 1 {
		t.Errorf("consolidation should land on the big class: %v", counts)
	}
	_ = sc
}

func TestMigrationOverheadCharged(t *testing.T) {
	// Rise then fall: the scale-down retires the big machine and displaces
	// its instance, which must charge the app's migration energy and hold
	// the lock for the migration duration.
	vals := make([]float64, 400)
	for i := range vals {
		if i < 150 {
			vals[i] = 100
		} else {
			vals[i] = 5
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	spec := app.StatelessWebServer()
	spec.Migration.Energy = 50
	spec.Migration.Duration = 5 * time.Second
	sc, _ := rigWith(t, tr, func(c *Config) { c.App = &spec })
	runAll(t, sc, tr)
	if sc.MigrationEnergy() == 0 {
		t.Error("no migration energy charged despite scale-down")
	}
	if math.Mod(float64(sc.MigrationEnergy()), 50) != 0 {
		t.Errorf("migration energy %v not a multiple of the per-instance cost", sc.MigrationEnergy())
	}
}

func TestAppClassHeadroomApplied(t *testing.T) {
	tr := constTrace(t, 95, 150)
	critical := app.StatelessWebServer()
	critical.Class = app.Critical // default headroom 1.2
	scPlain, clPlain := rigWith(t, tr, nil)
	scCrit, clCrit := rigWith(t, tr, func(c *Config) { c.App = &critical })
	runAll(t, scPlain, tr)
	runAll(t, scCrit, tr)
	if capacity(t, clCrit) <= capacity(t, clPlain) {
		t.Errorf("critical class headroom not applied: %v vs %v",
			capacity(t, clCrit), capacity(t, clPlain))
	}
}

func TestInvalidPolicyConfigs(t *testing.T) {
	tr := constTrace(t, 1, 10)
	planner, _ := bml.NewPlanner(fastArchs(), bml.WithPreFilteredCandidates())
	pred := predict.NewOracle(tr)
	cl, _ := cluster.New(planner.Candidates())
	base := Config{Table: planner.Lookup(10), Predictor: pred, Cluster: cl}

	badApp := app.StatelessWebServer()
	badApp.Name = ""
	cfg := base
	cfg.App = &badApp
	if _, err := New(cfg); err == nil {
		t.Error("invalid app spec accepted")
	}
	cfg = base
	cfg.AmortizeSeconds = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative amortization horizon accepted")
	}
	cfg = base
	cfg.AmortizeSeconds = math.NaN()
	if _, err := New(cfg); err == nil {
		t.Error("NaN amortization horizon accepted")
	}
}

func TestFleetPowerAtEstimate(t *testing.T) {
	tr := constTrace(t, 1, 10)
	sc, _ := rigWith(t, tr, nil)
	// 1 big + 1 little serving 105: big full (80 W) + little at 5
	// (2 + 5/12*10 ≈ 6.17 W).
	counts := []int{1, 1} // big, little
	got := sc.fleetPowerAt(counts, 105)
	want := 80 + 2 + 5.0/12*10
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("fleetPowerAt = %v, want %v", got, want)
	}
	if cap := sc.fleetCapacity(counts); cap != 112 {
		t.Errorf("fleetCapacity = %v, want 112", cap)
	}
}

func TestSwitchEnergyIncludesMigration(t *testing.T) {
	tr := constTrace(t, 1, 10)
	spec := app.StatelessWebServer()
	spec.Migration.Energy = 100
	sc, _ := rigWith(t, tr, func(c *Config) { c.App = &spec })
	from := []int{2, 0} // big, little
	to := []int{1, 1}
	// 1 big released (round trip 50+500 J) + 1 little on (15 J) + 1
	// displaced instance (100 J).
	got := sc.switchEnergy(from, to)
	if math.Abs(got-665) > 1e-9 {
		t.Errorf("switchEnergy = %v, want 665", got)
	}
}

func TestDecisionLogRecordsDecisions(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		if i < 100 {
			vals[i] = 10
		} else {
			vals[i] = 100
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := rigWith(t, tr, nil)
	runAll(t, sc, tr)
	log := sc.DecisionLog()
	if len(log) != sc.Decisions() {
		t.Fatalf("log entries = %d, decisions = %d", len(log), sc.Decisions())
	}
	for i := 1; i < len(log); i++ {
		if log[i].Time <= log[i-1].Time {
			t.Errorf("log not time-ordered at %d", i)
		}
	}
	first := log[0]
	if first.Predicted <= 0 || first.SwitchOns == 0 {
		t.Errorf("first decision = %+v", first)
	}
	// Returned log is a deep copy.
	first.Target["big"] = 999
	if sc.DecisionLog()[0].Target["big"] == 999 {
		t.Error("DecisionLog exposes internal maps")
	}
}

func TestDecisionLogDisabled(t *testing.T) {
	tr := constTrace(t, 50, 50)
	sc, _ := rigWith(t, tr, func(c *Config) { c.DecisionLogCap = -1 })
	runAll(t, sc, tr)
	if len(sc.DecisionLog()) != 0 {
		t.Error("disabled log retained entries")
	}
	if sc.Decisions() == 0 {
		t.Error("decisions still counted with log disabled")
	}
}

func TestDecisionLogBounded(t *testing.T) {
	// Flapping load forces many decisions; a tiny cap keeps only the tail.
	vals := make([]float64, 2000)
	for i := range vals {
		if (i/25)%2 == 0 {
			vals[i] = 5
		} else {
			vals[i] = 100
		}
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := rigWith(t, tr, func(c *Config) { c.DecisionLogCap = 8 })
	runAll(t, sc, tr)
	if sc.Decisions() <= 8 {
		t.Skip("not enough decisions to exercise the bound")
	}
	log := sc.DecisionLog()
	if len(log) > 8 {
		t.Errorf("log grew to %d beyond cap 8", len(log))
	}
	if len(log) == 0 {
		t.Error("bounded log empty")
	}
	// Retained entries are the most recent ones.
	if log[len(log)-1].Time < 1000 {
		t.Errorf("tail entry at t=%d, want recent decisions retained", log[len(log)-1].Time)
	}
}
