package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bml"
	"repro/internal/paper"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The paper-grid spec: two generated one-day raw traces, quantized to
// ten-minute steps by the runner, under several configs, seeded repeats
// and fleets {0, 50, 500}. Cells are short, so the fixed cost per cell
// (rebuilding the planner table in sim.LiveRig) dominates the cold pass,
// and fleet 500 makes the LowerBound's exact solver large. The bound cells
// of trace t1 are shared by both experiments, so even the cold pass reads
// the cache.
const (
	paperDays     = 1
	paperQuantize = 600
	paperRepeats  = 6
	paperTraces   = 3
)

var paperFleets = []int{0, 50, 500}

// artifacts are the files bmlpaper writes per experiment that must be
// byte-identical between a cold and a warm pass. cells.jsonl is left out:
// the warm journal marks its records as cached.
var artifacts = []string{"cells.csv", "summary.csv", "table.txt", "table.tex", "plot_total_kwh.txt"}

// paperGrid runs paper.Runner on a spec the benchmark writes: a cold pass
// into an empty sim.DirCache, then a warm pass from the filled cache into a
// fresh output directory.
func paperGrid(e *env) (*outcome, error) {
	o := newOutcome()
	inputs := filepath.Join(e.work, "inputs")
	var spec paper.Spec
	var traceLen int
	var err error
	o.setups, err = setup(func() error {
		if err := os.RemoveAll(inputs); err != nil {
			return err
		}
		spec, traceLen, err = writePaperInputs(inputs, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	runner := func(out string, cache sim.CellCache) *paper.Runner {
		return &paper.Runner{Out: out, Cache: cache, Workers: e.workers, Log: log.New(io.Discard, "", 0)}
	}
	var warmWalls []float64
	var firstCold string
	coldCells, computed := 0, 0
	ps, err := passes(e, func(i int) (sample, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("pass%d", i))
		cache, err := sim.NewDirCache(filepath.Join(dir, "cache"))
		if err != nil {
			return sample{}, err
		}
		coldDir, warmDir := filepath.Join(dir, "cold"), filepath.Join(dir, "warm")
		var cold, warm *paper.Outcome
		var warmWall time.Duration
		// The wall is the cold run's; alloc and RSS cover both runs.
		s, err := measure(func() (time.Duration, error) {
			t0 := time.Now()
			var err error
			if cold, err = runner(coldDir, cache).Run(spec); err != nil {
				return 0, err
			}
			coldWall := time.Since(t0)
			t0 = time.Now()
			warm, err = runner(warmDir, cache).Run(spec)
			warmWall = time.Since(t0)
			return coldWall, err
		})
		if err != nil {
			return s, err
		}
		warmWalls = append(warmWalls, warmWall.Seconds())
		coldCells, computed = 0, 0
		for _, x := range cold.Experiments {
			coldCells += x.Cells
			computed += x.Computed
		}
		checkPaperPass(o, cold, warm, coldDir, warmDir, firstCold)
		if firstCold == "" {
			firstCold = coldDir
			return s, nil
		}
		return s, os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	o.recordPasses(e.log, ps, float64(coldCells), float64(computed*traceLen))
	warmRate := float64(coldCells) / median(warmWalls)
	q1, q3 := quartiles(warmWalls)
	fmt.Fprintf(e.log, "paper-grid: one cold pass runs %d cells (%d computed); warm pass wall: median %.4f s, quartiles %.4f–%.4f s\n",
		coldCells, computed, median(warmWalls), q1, q3)
	fmt.Fprintf(e.log, "warm_cells_per_s %.6g cells/s (warm pass: every cell from the cache)\n", warmRate)

	if e.traced {
		o.layers["warm_cells_per_s"] = warmRate
		if err := paperTraced(o, e, spec, runner, median(ps.walls)+median(warmWalls)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// writePaperInputs generates the traces from seed, writes them as trace
// files and the spec naming them, and loads the spec back the way bmlpaper
// does. It returns the spec and the length of each trace.
func writePaperInputs(dir string, seed int64) (paper.Spec, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return paper.Spec{}, 0, err
	}
	var files []string
	n := 0
	for k := int64(1); k <= paperTraces; k++ {
		cfg := trace.DefaultWorldCupConfig()
		cfg.Days = paperDays
		cfg.Seed = seed*paperTraces + k
		tr, err := trace.GenerateWorldCup(cfg)
		if err != nil {
			return paper.Spec{}, 0, err
		}
		// The quantized peak sizes each cell's planner table and exact
		// solver. Rescaling it back to the generator's peak keeps that
		// work the same for every seed; without it one seed in four ran
		// with half the table work. The runner's own quantization of the
		// already quantized file changes nothing.
		if tr, err = tr.Quantize(paperQuantize); err != nil {
			return paper.Spec{}, 0, err
		}
		if tr, err = tr.Scale(cfg.PeakRate / tr.Max()); err != nil {
			return paper.Spec{}, 0, err
		}
		path := filepath.Join(dir, fmt.Sprintf("t%d.txt", k))
		if err := writeTrace(path, tr); err != nil {
			return paper.Spec{}, 0, err
		}
		files = append(files, path)
		n = tr.Len()
	}
	spec := paper.Spec{Experiments: []paper.Experiment{
		{Name: "ablation", Traces: files, Quantize: paperQuantize, Fleets: paperFleets,
			Configs: "default,name=h13:headroom=1.3,name=h15:headroom=1.5,name=oa:overhead-aware=true"},
		{Name: "faults", Traces: files[:1], Quantize: paperQuantize, Fleets: paperFleets,
			Configs: "name=flaky:boot-fault=0.25:fault-seed=7", Repeats: paperRepeats, Seed: seed + 1},
	}}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return paper.Spec{}, 0, err
	}
	path := filepath.Join(dir, "experiments.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return paper.Spec{}, 0, err
	}
	spec, err = paper.LoadSpec(path)
	return spec, n, err
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkPaperPass checks one cold/warm pair: both complete, the warm pass
// computed nothing, and every artifact is byte-identical between the two
// and to the first pass's cold artifacts (firstCold, "" on the first pass).
func checkPaperPass(o *outcome, cold, warm *paper.Outcome, coldDir, warmDir, firstCold string) {
	for _, x := range cold.Experiments {
		o.tally.cells += x.Cells
		o.tally.failedCells += len(x.Failed) + len(x.Missing)
	}
	if !cold.Complete() {
		o.failCheck(0, "paper-grid: cold pass incomplete")
	}
	if !warm.Complete() {
		o.failCheck(0, "paper-grid: warm pass incomplete")
	}
	for _, x := range warm.Experiments {
		if x.Computed != 0 {
			o.failCheck(x.Computed, "paper-grid: warm pass computed %d cells of experiment %s", x.Computed, x.Name)
		}
		for _, name := range artifacts {
			ref, err := os.ReadFile(filepath.Join(coldDir, x.Name, name))
			if err != nil {
				o.failCheck(x.Cells, "paper-grid: %v", err)
				continue
			}
			got, err := os.ReadFile(filepath.Join(warmDir, x.Name, name))
			if err != nil || !bytes.Equal(got, ref) {
				o.failCheck(x.Cells, "paper-grid: %s/%s differs between the cold and warm pass", x.Name, name)
			}
			if firstCold == "" || name == "cells.csv" { // cells.csv carries each cell's wall time
				continue
			}
			if first, err := os.ReadFile(filepath.Join(firstCold, x.Name, name)); err != nil || !bytes.Equal(first, ref) {
				o.failCheck(x.Cells, "paper-grid: %s/%s differs from the first pass", x.Name, name)
			}
		}
	}
}

// spanIO routes the runner's cache and sink calls into spans under the
// current sweep span.
type spanIO struct {
	t      *tracer
	parent int
	gets   int
	hits   int
}

type spanCache struct {
	io    *spanIO
	inner sim.CellCache
}

func (c spanCache) Get(id string) (rec sim.CellRecord, ok bool, err error) {
	sp := c.io.t.begin(c.io.parent, "cache.get")
	rec, ok, err = c.inner.Get(id)
	c.io.t.end(sp)
	c.io.gets++
	if ok {
		c.io.hits++
	}
	return rec, ok, err
}

func (c spanCache) Put(rec sim.CellRecord) error {
	return c.io.t.do(c.io.parent, "cache.put", func() error { return c.inner.Put(rec) })
}

type spanSink struct {
	io    *spanIO
	inner sim.CellSink
}

func (s spanSink) Emit(rec sim.CellRecord) error {
	return s.io.t.do(s.io.parent, "stream.emit", func() error { return s.inner.Emit(rec) })
}

func (s spanSink) Close() error { return s.inner.Close() }

// paperTraced is the traced run: one cold and one warm pass with the
// runner's sweep, cache and sink calls in spans, then standalone calls of
// the layers the runner uses inside — trace loading, rig and table
// rebuilds per BML cell, exact solvers per LowerBound cell, record
// encode/decode, merge, grouping and the CSV writers — on the same inputs
// and the cold pass's journals.
func paperTraced(o *outcome, e *env, spec paper.Spec, runner func(string, sim.CellCache) *paper.Runner, untracedWall float64) error {
	dir := filepath.Join(e.work, "traced")
	cache, err := sim.NewDirCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	coldDir, warmDir := filepath.Join(dir, "cold"), filepath.Join(dir, "warm")
	var replay time.Duration
	var probes probeTotals
	sio := &spanIO{}
	err = o.traceSection(func(t *tracer) error {
		sio.t = t
		var outs []*paper.Outcome
		for _, pass := range []struct{ name, dir string }{{"paper.run_cold", coldDir}, {"paper.run_warm", warmDir}} {
			r := runner(pass.dir, spanCache{sio, cache})
			r.Sweep = func(jobs []sim.SweepJob, workers int, sink sim.CellSink, cache sim.CellCache) (sim.CacheStats, error) {
				id := t.begin(sio.parent, "stream.sweep")
				defer t.end(id)
				outer := sio.parent
				sio.parent = id
				defer func() { sio.parent = outer }()
				return sim.SweepStreamToCache(jobs, workers, spanSink{sio, sink}, cache)
			}
			root := t.begin(0, pass.name)
			sio.parent = root
			t0 := t.now()
			out, err := r.Run(spec)
			replay += t.now() - t0
			t.end(root)
			if err != nil {
				return err
			}
			outs = append(outs, out)
		}
		checkPaperPass(o, outs[0], outs[1], coldDir, warmDir, "")
		root := t.begin(0, "probes")
		defer t.end(root)
		return paperProbes(t, root, spec, coldDir, &probes)
	})
	if err != nil {
		return err
	}
	st := statsByName(o.spans)
	o.layerTimes(st)
	o.layers["cache.get_us"] = median(st["cache.get"].durs) * 1e6
	o.layers["cache.put_us"] = median(st["cache.put"].durs) * 1e6
	o.layers["cache.hit_ratio"] = float64(sio.hits) / float64(sio.gets)
	o.layers["stream.encode_us"] = st["stream.encode"].total.Seconds() * 1e6 / float64(probes.records)
	o.layers["stream.decode_us"] = st["stream.decode"].total.Seconds() * 1e6 / float64(probes.records)
	o.layers["stream.merge_s"] = st["stream.merge"].total.Seconds()
	o.layers["paper.group_s"] = st["paper.group"].total.Seconds()
	o.layers["paper.summary_s"] = st["paper.summary"].total.Seconds()
	o.layers["report.sweep_csv_s"] = st["report.sweep_csv"].total.Seconds()
	o.layers["tracing.overhead_s"] = replay.Seconds() - untracedWall
	probes.cellLayers(o)
	return nil
}

// probeTotals collects what the probes read from the cold pass's journals.
type probeTotals struct {
	records int
	// computed cells' wall times and counters, keyed by scenario
	wallMS    map[string][]float64
	decisions int
	switchOns int
}

func (p *probeTotals) addRecords(recs []sim.CellRecord) {
	if p.wallMS == nil {
		p.wallMS = map[string][]float64{}
	}
	p.records += len(recs)
	for _, r := range recs {
		if r.Cached {
			continue
		}
		p.wallMS[r.Scenario] = append(p.wallMS[r.Scenario], r.WallMS)
		p.decisions += r.Decisions
		p.switchOns += r.SwitchOns
	}
}

// cellLayers sets the per-scenario engine times from the computed cells'
// own wall times (sim.SweepResult.Wall, streamed as wall_ms): the sweep
// runs scenarios inside SweepStream, where no outside span reaches. With
// several workers they add up to more than the pass's wall.
func (p *probeTotals) cellLayers(o *outcome) {
	var all []float64
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / 1e3
	}
	for scen, metric := range map[sim.Scenario]string{
		sim.ScenarioBML: "sim.bml_s", sim.ScenarioUpperBoundGlobal: "sim.ub_global_s",
		sim.ScenarioUpperBoundPerDay: "sim.ub_perday_s", sim.ScenarioLowerBound: "sim.lowerbound_s",
	} {
		o.layers[metric] = sum(p.wallMS[string(scen)])
		all = append(all, p.wallMS[string(scen)]...)
	}
	o.layers["stream.cell_wall_ms_p50"] = median(all)
	o.layers["sim.bml_engine_s"] = o.layers["sim.bml_s"] - o.layers["sim.rig_s"]
	o.layers["sim.decisions"] = float64(p.decisions)
	o.layers["sim.switch_ons"] = float64(p.switchOns)
}

// paperProbes re-enumerates each experiment's grid the way the runner does
// and calls, in spans, the layers the runner reaches only inside the
// program: a rig (table rebuild, predictor shared as in a sweep) per BML
// cell, an exact solver per LowerBound cell, and the stream and analysis
// functions over the cold journals. Cells shared between experiments are
// probed once.
func paperProbes(t *tracer, root int, spec paper.Spec, coldDir string, p *probeTotals) error {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return err
	}
	window, err := sched.Window(planner.Candidates(), sched.DefaultWindowFactor)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, x := range spec.Experiments {
		var traces []sim.TraceAxis
		if err := t.do(root, "trace.load", func() (err error) {
			traces, err = sim.LoadTraceAxes(x.Traces, x.Quantize)
			return err
		}); err != nil {
			return err
		}
		configs, err := sim.ParseConfigs(x.Configs)
		if err != nil {
			return err
		}
		repeats, seed := max(x.Repeats, 1), max(x.Seed, 1)
		expanded, baseOf, err := sim.RepeatConfigs(configs, repeats, seed)
		if err != nil {
			return err
		}
		jobs, err := sim.Grid(traces, planner, expanded, x.Fleets)
		if err != nil {
			return err
		}
		if err := cellProbes(t, root, jobs, planner, window, seen); err != nil {
			return err
		}

		var recs []sim.CellRecord
		raw, err := os.ReadFile(filepath.Join(coldDir, x.Name, "cells.jsonl"))
		if err != nil {
			return err
		}
		if err := t.do(root, "stream.decode", func() (err error) {
			recs, err = sim.ReadCellRecords(bytes.NewReader(raw))
			return err
		}); err != nil {
			return err
		}
		p.addRecords(recs)
		if err := t.do(root, "stream.encode", func() error {
			var buf bytes.Buffer
			for _, r := range recs {
				if err := sim.WriteCellRecord(&buf, r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		var cells []sim.CellRecord
		if err := t.do(root, "stream.merge", func() (err error) {
			cells, _, err = sim.MergeCells(jobs, recs)
			return err
		}); err != nil {
			return err
		}
		sp := t.begin(root, "paper.group")
		groups := paper.GroupCells(cells, baseOf)
		t.end(sp)
		if err := t.do(root, "paper.summary", func() error {
			return paper.SummaryCSV(&bytes.Buffer{}, groups, repeats > 1)
		}); err != nil {
			return err
		}
		if err := t.do(root, "report.sweep_csv", func() error {
			return report.SweepCSV(&bytes.Buffer{}, cells)
		}); err != nil {
			return err
		}
	}
	return nil
}

// cellProbes probes the per-cell set-up of every cell in jobs not already
// in seen: the rig of each BML cell (with the predictor shared per scaled
// trace, as sim.SweepStream shares it) and the exact solver of each
// LowerBound cell.
func cellProbes(t *tracer, root int, jobs []sim.SweepJob, planner *bml.Planner, window int, seen map[string]bool) error {
	type key struct {
		tr    *trace.Trace
		scale float64
	}
	scaled := map[key]*trace.Trace{}
	preds := map[key]predict.Predictor{}
	for _, j := range jobs {
		id := sim.CellID(j)
		if seen[id] || (j.Scenario != sim.ScenarioBML && j.Scenario != sim.ScenarioLowerBound) {
			continue
		}
		seen[id] = true
		k := key{j.Trace, j.FleetScale}
		tr, ok := scaled[k]
		if !ok {
			tr = j.Trace
			if j.FleetScale != 0 && j.FleetScale != 1 {
				var err error
				if tr, err = j.Trace.Scale(j.FleetScale); err != nil {
					return err
				}
			}
			scaled[k] = tr
		}
		if j.Scenario == sim.ScenarioLowerBound {
			if err := exactProbe(t, root, tr, planner); err != nil {
				return err
			}
			continue
		}
		pred, ok := preds[k]
		if !ok {
			if err := t.do(root, "predict.lookahead", func() (err error) {
				pred, err = predict.NewLookaheadMax(tr, window)
				return err
			}); err != nil {
				return err
			}
			preds[k] = pred
		}
		if err := rigProbes(t, root, tr, planner, j.BML, pred); err != nil {
			return err
		}
	}
	return nil
}
