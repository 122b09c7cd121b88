package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wc98"
)

// fig5Raw is the paper's Figure 5 evaluation as bmlsim runs it by default:
// the four scenarios over a generated raw 1 Hz 92-day trace, days 6–92,
// rendered as the Figure 5 CSV. It is bound by the engine and planner and
// does no cache, stream or coordinator work.
func fig5Raw(e *env) (*outcome, error) {
	o := newOutcome()
	machines := profile.PaperMachines()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Seed = e.seed
	var tr *trace.Trace
	var err error
	o.setups, err = setup(func() error {
		tr = nil // let the previous repetition's trace be collected first
		var err error
		tr, err = trace.GenerateWorldCup(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}

	var first *wc98.Evaluation
	var firstCSV []byte
	ps, err := passes(e, func(i int) (sample, error) {
		var ev *wc98.Evaluation
		var csv bytes.Buffer
		s, err := measure(func() (time.Duration, error) {
			t0 := time.Now()
			var err error
			if ev, err = wc98.Run(tr, machines, wc98.Config{}); err != nil {
				return 0, err
			}
			err = report.Fig5CSV(&csv, ev)
			return time.Since(t0), err
		})
		if err != nil {
			return s, err
		}
		o.tally.cells += len(ev.Results)
		if first == nil {
			first, firstCSV = ev, csv.Bytes()
		} else if !bytes.Equal(csv.Bytes(), firstCSV) {
			o.failCheck(len(ev.Results), "fig5-raw: pass %d Figure 5 CSV differs from pass 1", i+1)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	o.recordPasses(e.log, ps, 4, 4*float64(tr.Len()))
	fmt.Fprintf(e.log, "fig5-raw: one pass evaluates 4 scenarios over %d trace samples\n", tr.Len())

	if e.traced {
		if err := fig5Traced(o, tr, first, median(ps.walls), cfg); err != nil {
			return nil, err
		}
	}

	// The tick engine is the root oracle: the integrator must match it to
	// 1e-6 J per day with exactly equal counters.
	oracle, err := wc98.Run(tr, machines, wc98.Config{Sim: []sim.Option{sim.WithTickEngine()}})
	if err != nil {
		return nil, fmt.Errorf("tick oracle: %w", err)
	}
	for name, want := range oracle.Results {
		if msg := resultMismatch(first.Results[name], want); msg != "" {
			o.failCheck(len(ps.walls), "fig5-raw: %s differs from the tick oracle: %s", name, msg)
		}
	}
	return o, nil
}

// resultMismatch compares a scenario result with the oracle's: energies to
// 1e-6 J, counters exactly. It returns "" when they agree.
func resultMismatch(got, want *sim.Result) string {
	const tol = 1e-6
	if got == nil {
		return "missing"
	}
	if len(got.DailyEnergy) != len(want.DailyEnergy) {
		return fmt.Sprintf("%d days, oracle %d", len(got.DailyEnergy), len(want.DailyEnergy))
	}
	for d := range want.DailyEnergy {
		if diff := math.Abs(float64(got.DailyEnergy[d] - want.DailyEnergy[d])); diff > tol {
			return fmt.Sprintf("day %d energy off by %g J", d+1, diff)
		}
	}
	if diff := math.Abs(float64(got.TotalEnergy - want.TotalEnergy)); diff > tol {
		return fmt.Sprintf("total energy off by %g J", diff)
	}
	if got.Decisions != want.Decisions || got.SwitchOns != want.SwitchOns || got.SwitchOffs != want.SwitchOffs {
		return fmt.Sprintf("counters %d/%d/%d, oracle %d/%d/%d", got.Decisions, got.SwitchOns, got.SwitchOffs,
			want.Decisions, want.SwitchOns, want.SwitchOffs)
	}
	return ""
}

// fig5Traced is the traced run: the evaluation's layers called one after
// another, each in a span — trace generation, the planner, the four
// scenarios, and standalone calls of the rig, predictor, table and exact
// solver that the BML and LowerBound scenarios build inside. The
// scenarios run sequentially here (concurrently in the timed passes), so
// the tracing overhead includes the lost parallelism.
func fig5Traced(o *outcome, tr *trace.Trace, ev *wc98.Evaluation, untracedWall float64, cfg trace.WorldCupConfig) error {
	var planner *bml.Planner
	var bmlRes *sim.Result
	var replay time.Duration
	err := o.traceSection(func(t *tracer) error {
		root := t.begin(0, "fig5.evaluate")
		defer t.end(root)
		if err := t.do(root, "trace.generate", func() error {
			_, err := trace.GenerateWorldCup(cfg)
			return err
		}); err != nil {
			return err
		}
		t0 := t.now()
		if err := t.do(root, "bml.planner", func() (err error) {
			planner, err = bml.NewPlanner(profile.PaperMachines())
			return err
		}); err != nil {
			return err
		}
		scenarios := []struct {
			name string
			run  func() (*sim.Result, error)
		}{
			{"sim.ub_global", func() (*sim.Result, error) { return sim.RunUpperBoundGlobal(tr, planner.Big()) }},
			{"sim.ub_perday", func() (*sim.Result, error) { return sim.RunUpperBoundPerDay(tr, planner.Big()) }},
			{"sim.bml", func() (*sim.Result, error) { return sim.RunBML(tr, planner, sim.BMLConfig{}) }},
			{"sim.lowerbound", func() (*sim.Result, error) { return sim.RunLowerBound(tr, planner.Candidates()) }},
		}
		for _, sc := range scenarios {
			var res *sim.Result
			if err := t.do(root, sc.name, func() (err error) {
				res, err = sc.run()
				return err
			}); err != nil {
				return err
			}
			if sc.name == "sim.bml" {
				bmlRes = res
			}
		}
		if err := t.do(root, "report.fig5_csv", func() error { return report.Fig5CSV(&bytes.Buffer{}, ev) }); err != nil {
			return err
		}
		replay = t.now() - t0
		if err := rigProbes(t, root, tr, planner, sim.BMLConfig{}, nil); err != nil {
			return err
		}
		return exactProbe(t, root, tr, planner)
	})
	if err != nil {
		return err
	}
	st := statsByName(o.spans)
	o.layerTimes(st)
	o.layers["sim.decisions"] = float64(bmlRes.Decisions)
	o.layers["sim.switch_ons"] = float64(bmlRes.SwitchOns)
	o.layers["tracing.overhead_s"] = replay.Seconds() - untracedWall
	return nil
}

// rigProbes calls, each in its own span, what sim.RunBML builds before
// simulating: the BML rig (sim.LiveRig) and, separately, the look-ahead
// predictor and the combination table inside it. pred, when non-nil, is
// the predictor a sweep shares across the cells over one trace; the rig
// probe then times only what each cell rebuilds.
func rigProbes(t *tracer, parent int, tr *trace.Trace, planner *bml.Planner, cfg sim.BMLConfig, pred predict.Predictor) error {
	lookahead := pred
	if pred == nil {
		window, err := sched.Window(planner.Candidates(), sched.DefaultWindowFactor)
		if err != nil {
			return err
		}
		if err := t.do(parent, "predict.lookahead", func() (err error) {
			lookahead, err = predict.NewLookaheadMax(tr, window)
			return err
		}); err != nil {
			return err
		}
	}
	rigCfg := cfg
	rigCfg.Predictor = pred
	if err := t.do(parent, "sim.rig", func() error {
		_, _, _, err := sim.LiveRig(tr, planner, rigCfg)
		return err
	}); err != nil {
		return err
	}
	// Given a predictor, LiveRig builds only the table (dense or lazy, by
	// its own size limit, at the config's headroom) and the window.
	tableCfg := cfg
	tableCfg.Predictor = lookahead
	return t.do(parent, "bml.table", func() error {
		_, _, _, err := sim.LiveRig(tr, planner, tableCfg)
		return err
	})
}

// exactProbe builds, in a span, the exact solver sim.RunLowerBound builds
// before simulating.
func exactProbe(t *tracer, parent int, tr *trace.Trace, planner *bml.Planner) error {
	return t.do(parent, "bml.exact", func() error {
		_, err := bml.NewExactSolver(planner.Candidates(), tr.Max(), 1)
		return err
	})
}

// layerTimes fills the per-layer metrics every workload derives the same
// way from span totals.
func (o *outcome) layerTimes(st map[string]*spanStats) {
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	for _, n := range []string{"trace.generate", "predict.lookahead", "bml.table", "bml.exact", "sim.rig",
		"sim.bml", "sim.ub_global", "sim.ub_perday", "sim.lowerbound"} {
		if s, ok := st[n]; ok {
			o.layers[n+"_s"] = s.total.Seconds()
		}
	}
	o.layers["bml.table_alloc_mb"] = mb(get("bml.table").alloc)
	o.layers["bml.exact_alloc_mb"] = mb(get("bml.exact").alloc)
	o.layers["sim.bml_alloc_mb"] = mb(get("sim.bml").alloc)
	o.layers["sim.rig_calls"] = float64(get("sim.rig").calls)
	if _, ok := st["sim.bml"]; ok {
		o.layers["sim.bml_engine_s"] = get("sim.bml").total.Seconds() - get("sim.rig").total.Seconds()
	}
}
