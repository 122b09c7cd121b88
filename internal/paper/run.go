package paper

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runner executes a validated Spec into a run directory. The zero value
// plus Out is usable; Cache is optional but is what makes warm re-runs
// free. LoadTraces and Sweep default to the production sim implementations
// and exist as seams for tests that need to inject trace/cell failures
// without a way to make a real simulation fail.
type Runner struct {
	// Out is the run directory (created if needed); each experiment writes
	// its artifacts into Out/<name>/.
	Out string
	// Cache is the content-addressed cell cache shared with bmlsweep runs
	// (nil = always compute).
	Cache sim.CellCache
	// Workers bounds the concurrent cell simulations (<= 0 = GOMAXPROCS).
	Workers int
	// Log receives progress lines (nil = standard logger).
	Log *log.Logger

	// LoadTraces loads the trace files of an experiment that no earlier
	// experiment of the run loaded at the same quantization (nil =
	// sim.LoadTraceAxes).
	LoadTraces func(paths []string, quantize int) ([]sim.TraceAxis, error)
	// Sweep streams an experiment's jobs into the sink through the cache
	// (nil = sim.SweepStreamToCache).
	Sweep func(jobs []sim.SweepJob, workers int, sink sim.CellSink, cache sim.CellCache) (sim.CacheStats, error)
}

// ExperimentResult is one experiment's outcome: where its artifacts are,
// how much the cache saved, and — when the grid came back incomplete —
// which cells are missing or failed.
type ExperimentResult struct {
	Name  string
	Dir   string
	Cells int
	// Hits and Computed split the grid into cache-served and freshly
	// simulated cells (Hits + Computed == Cells on a complete run).
	Hits     int
	Computed int
	// Incomplete marks an experiment whose merged cells do not cover the
	// grid; Summary then points at the clearly-labeled partial summary.
	Incomplete bool
	Missing    []string
	Failed     []string
	// Summary is the path of the summary CSV written for this experiment
	// (summary.csv, or summary.partial.csv when Incomplete).
	Summary string
}

// Outcome is a whole run's result, in spec order.
type Outcome struct {
	Dir         string
	Experiments []ExperimentResult
}

// Complete reports whether every experiment's grid merged completely —
// the bmlpaper exit-0 condition.
func (o *Outcome) Complete() bool {
	for _, e := range o.Experiments {
		if e.Incomplete {
			return false
		}
	}
	return true
}

// Run executes every experiment of a validated spec in order, writing per
// experiment into Out/<name>/:
//
//	cells.jsonl       every streamed cell record (the audit journal)
//	cells.csv         merged successful cells in grid order (SweepCSV)
//	summary.csv       repeat-grouped mean/std/CI summary (.partial.csv if incomplete)
//	table.txt         the summary as an aligned paper table
//	table.tex         the summary as a LaTeX table
//	plot_total_kwh.txt  total-energy error-bar plot over the BML groups
//
// An incomplete experiment (missing or failed cells) does not abort the
// run: its partial artifacts are written and labeled, the result is marked
// Incomplete, and the remaining experiments still execute — mirroring the
// bmlsweep contract where incompleteness is exit 1, diagnosable from the
// named cells. Hard errors (unloadable traces, an undecodable stream, a
// mixed-schema cache) abort with the experiment's name in the error.
func (r *Runner) Run(spec Spec) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if r.Out == "" {
		return nil, errors.New("paper: Runner needs an output directory")
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.Out, 0o755); err != nil {
		return nil, err
	}
	out := &Outcome{Dir: r.Out}
	// Experiments that share a trace share the loaded, immutable trace,
	// and with it one fingerprint. Nothing is kept across runs.
	traces := map[traceSource]sim.TraceAxis{}
	for _, exp := range spec.Experiments {
		res, err := r.runExperiment(exp, planner, traces)
		if err != nil {
			return nil, fmt.Errorf("paper: experiment %q: %w", exp.Name, err)
		}
		out.Experiments = append(out.Experiments, res)
	}
	return out, nil
}

func (r *Runner) runExperiment(exp Experiment, planner *bml.Planner, loaded map[traceSource]sim.TraceAxis) (ExperimentResult, error) {
	res := ExperimentResult{Name: exp.Name, Dir: filepath.Join(r.Out, exp.Name)}

	traces, err := r.buildTraces(exp, loaded)
	if err != nil {
		return res, err
	}
	configs, err := sim.ParseConfigs(exp.Configs)
	if err != nil {
		return res, err
	}
	expanded, baseOf, err := sim.RepeatConfigs(configs, exp.repeats(), exp.seed())
	if err != nil {
		return res, err
	}
	jobs, err := sim.Grid(traces, planner, expanded, exp.fleets())
	if err != nil {
		return res, err
	}
	res.Cells = len(jobs)
	if err := os.MkdirAll(res.Dir, 0o755); err != nil {
		return res, err
	}

	// Stream every cell into the experiment's journal, through the shared
	// cache: cells already paid for (by an earlier experiment, an earlier
	// run, or a plain bmlsweep over the same grid) are served, not re-run.
	journalPath := filepath.Join(res.Dir, "cells.jsonl")
	journal, err := os.Create(journalPath)
	if err != nil {
		return res, err
	}
	sweep := r.Sweep
	if sweep == nil {
		sweep = sim.SweepStreamToCache
	}
	stats, sweepErr := sweep(jobs, r.Workers, sim.NewWriterSink(journal), r.Cache)
	if closeErr := journal.Close(); sweepErr == nil {
		sweepErr = closeErr
	}
	if sweepErr != nil {
		return res, sweepErr
	}
	res.Hits, res.Computed = stats.Hits, stats.Misses

	// Validate the journal against the re-enumerated grid, exactly like a
	// bmlsweep merge: the journal — not the in-process stream — is the
	// source of truth, so what the analysis reads is what an auditor reads.
	f, err := os.Open(journalPath)
	if err != nil {
		return res, err
	}
	records, err := sim.ReadCellRecords(f)
	f.Close()
	if err != nil {
		return res, err
	}
	cells, mstats, mergeErr := sim.MergeCells(jobs, records)
	if mergeErr != nil {
		if errors.Is(mergeErr, sim.ErrCellSchema) {
			// Re-running can never fix a schema mismatch (a stale v1 cache
			// entry, a hand-edited journal): hard error, named upstream.
			return res, mergeErr
		}
		res.Incomplete = true
		res.Missing, res.Failed = mstats.Missing, mstats.Failed
		r.logf("experiment %s: INCOMPLETE: %v", exp.Name, mergeErr)
		for _, id := range mstats.Missing {
			r.logf("experiment %s: missing cell: %s", exp.Name, id)
		}
		for _, id := range mstats.Failed {
			r.logf("experiment %s: failed cell: %s", exp.Name, id)
		}
	}
	r.logf("experiment %s: %d cells (cache served %d, computed %d)",
		exp.Name, res.Cells, res.Hits, res.Computed)

	if err := r.writeAnalysis(&res, exp, cells, baseOf); err != nil {
		return res, err
	}
	return res, nil
}

// traceSource is one distinct trace of a run: a file at a quantization,
// or the generated trace of the generator fields at a quantization.
type traceSource struct {
	path     string // "" for a generated trace
	days     int
	peak     float64
	seed     int64
	quantize int
}

// buildTraces builds an experiment's trace axis the same way bmlsweep
// does, so spec-driven grids and flag-driven grids share cell identities.
// A source already in loaded is not built again; one built here is added.
func (r *Runner) buildTraces(exp Experiment, loaded map[traceSource]sim.TraceAxis) ([]sim.TraceAxis, error) {
	if len(exp.Traces) > 0 {
		if err := sim.CheckTraceFileNames(exp.Traces); err != nil {
			return nil, err
		}
		file := func(path string) traceSource { return traceSource{path: path, quantize: exp.Quantize} }
		var missing []string
		for _, path := range exp.Traces {
			if _, ok := loaded[file(path)]; !ok {
				missing = append(missing, path)
			}
		}
		if len(missing) > 0 {
			load := r.LoadTraces
			if load == nil {
				load = sim.LoadTraceAxes
			}
			axes, err := load(missing, exp.Quantize)
			if err != nil {
				return nil, err
			}
			for i, path := range missing {
				loaded[file(path)] = axes[i]
			}
		}
		out := make([]sim.TraceAxis, len(exp.Traces))
		for i, path := range exp.Traces {
			out[i] = loaded[file(path)]
		}
		return out, nil
	}
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = exp.days()
	cfg.PeakRate = exp.peak()
	cfg.Seed = exp.traceSeed()
	src := traceSource{days: cfg.Days, peak: cfg.PeakRate, seed: cfg.Seed, quantize: exp.Quantize}
	if ax, ok := loaded[src]; ok {
		return []sim.TraceAxis{ax}, nil
	}
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		return nil, err
	}
	if exp.Quantize > 0 {
		if tr, err = tr.Quantize(exp.Quantize); err != nil {
			return nil, err
		}
	}
	loaded[src] = sim.TraceAxis{Trace: tr}
	return []sim.TraceAxis{loaded[src]}, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
