package paper

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// writeTestTrace writes a small bursty trace file and returns its path.
// Real simulations over it take milliseconds, so the pipeline tests run
// end-to-end — spec → grid → cache → merge → summary — on real cells.
func writeTestTrace(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var sb strings.Builder
	for i := 0; i < 1800; i++ {
		v := 900 + 700*math.Sin(float64(i)/200) + 300*math.Sin(float64(i)/37)
		fmt.Fprintf(&sb, "%.0f\n", math.Max(v, 0))
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testLogger(t *testing.T) (*log.Logger, *strings.Builder) {
	var sb strings.Builder
	return log.New(&sb, "", 0), &sb
}

func TestParseSpecValidation(t *testing.T) {
	good := `{"experiments": [
		{"name": "grid", "traces": ["a.txt"], "fleets": [0, 50], "configs": "default,name=h13:headroom=1.3"},
		{"name": "faults", "days": 1, "quantize": 600, "configs": "name=flaky:boot-fault=0.3", "repeats": 3, "seed": 1}
	]}`
	spec, err := ParseSpec(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Experiments) != 2 || spec.Experiments[1].repeats() != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	// Defaults mirror the bmlsweep grid flags.
	e := spec.Experiments[1]
	if e.peak() != 5000 || e.traceSeed() != 1998 || len(e.fleets()) != 1 || e.fleets()[0] != 0 {
		t.Errorf("defaults: peak=%g traceSeed=%d fleets=%v", e.peak(), e.traceSeed(), e.fleets())
	}
	if spec.Experiments[0].repeats() != 1 || spec.Experiments[0].seed() != 1 {
		t.Errorf("repeat defaults: %+v", spec.Experiments[0])
	}

	bad := map[string]string{
		"unknown field":      `{"experiments": [{"name": "x", "repeets": 3}]}`,
		"unknown root field": `{"experiments": [], "extra": 1}`,
		"no experiments":     `{"experiments": []}`,
		"unnamed":            `{"experiments": [{"days": 1}]}`,
		"bad name charset":   `{"experiments": [{"name": "a b"}]}`,
		"duplicate names":    `{"experiments": [{"name": "x"}, {"name": "x"}]}`,
		"negative days":      `{"experiments": [{"name": "x", "days": -1}]}`,
		"days with traces":   `{"experiments": [{"name": "x", "traces": ["t"], "days": 3}]}`,
		"negative quantize":  `{"experiments": [{"name": "x", "quantize": -1}]}`,
		"negative fleet":     `{"experiments": [{"name": "x", "fleets": [-5]}]}`,
		"bad configs":        `{"experiments": [{"name": "x", "configs": "name=y:nonsense=1"}]}`,
		"negative repeats":   `{"experiments": [{"name": "x", "repeats": -2}]}`,
		"seed sans repeats":  `{"experiments": [{"name": "x", "seed": 5}]}`,
		"negative seed":      `{"experiments": [{"name": "x", "repeats": 2, "seed": -3}]}`,
		"trailing garbage":   `{"experiments": [{"name": "x"}]} {"experiments": []}`,
		"not json":           `fleets: [0]`,
	}
	for what, in := range bad {
		_, err := ParseSpec(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: unexpectedly accepted", what)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: error %v does not wrap ErrSpec", what, err)
		}
	}
	// Errors name the offending experiment wherever one exists.
	if _, err := ParseSpec(strings.NewReader(`{"experiments": [{"name": "abl", "fleets": [-1]}]}`)); err == nil || !strings.Contains(err.Error(), `"abl"`) {
		t.Errorf("validation error does not name the experiment: %v", err)
	}
}

// TestRunSingleRepeat pins the repeats:1 contract: the grid is exactly a
// plain sweep (cells shareable with bmlsweep), and the summary CSV has no
// std/CI columns at all — not blank columns, not NaN.
func TestRunSingleRepeat(t *testing.T) {
	tr := writeTestTrace(t, "burst.txt")
	spec := Spec{Experiments: []Experiment{{
		Name:    "grid",
		Traces:  []string{tr},
		Fleets:  []int{0, 50},
		Configs: "default,name=h13:headroom=1.3",
	}}}
	logger, logged := testLogger(t)
	r := &Runner{Out: filepath.Join(t.TempDir(), "run"), Log: logger}
	out, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete() {
		t.Fatalf("outcome incomplete: %+v", out.Experiments)
	}
	exp := out.Experiments[0]
	// 1 trace × 2 fleets × (3 bounds + 2 configs) = 10 cells, none cached.
	if exp.Cells != 10 || exp.Hits != 0 || exp.Computed != 10 {
		t.Fatalf("cells=%d hits=%d computed=%d, want 10/0/10", exp.Cells, exp.Hits, exp.Computed)
	}
	if !strings.Contains(logged.String(), "experiment grid: 10 cells (cache served 0, computed 10)") {
		t.Errorf("missing cache accounting log:\n%s", logged.String())
	}

	for _, name := range []string{"cells.jsonl", "cells.csv", "summary.csv", "table.txt", "table.tex", "plot_total_kwh.txt"} {
		if fi, err := os.Stat(filepath.Join(exp.Dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s: %v (size %v)", name, err, fi)
		}
	}
	summary, err := os.ReadFile(exp.Summary)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(summary)), "\n")
	if lines[0] != "scenario,trace,config,fleet_scale,n,total_J_mean,availability_mean,decisions_mean,switch_ons_mean,switch_offs_mean,lost_requests_mean" {
		t.Errorf("repeats:1 summary header = %s", lines[0])
	}
	if strings.Contains(string(summary), "std") || strings.Contains(string(summary), "NaN") {
		t.Errorf("repeats:1 summary leaked spread columns or NaN:\n%s", summary)
	}
	// One row per (scenario × fleet × config) group: bounds (3×2 fleets)
	// plus BML (2 configs × 2 fleets) = 10 groups, every n=1.
	if len(lines) != 11 {
		t.Errorf("summary rows = %d, want 11:\n%s", len(lines), summary)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",1,") {
			t.Errorf("repeats:1 group with n != 1: %s", line)
		}
	}
}

// TestRunRepeatsWarmRerun is the pipeline's core differential: a repeated
// fault-injection experiment groups its repeats with mean/std/CI, bound
// cells stay single (blank spread), and a second run against the same
// cache recomputes zero cells while reproducing summary.csv byte for byte.
func TestRunRepeatsWarmRerun(t *testing.T) {
	tr := writeTestTrace(t, "burst.txt")
	cache, err := sim.NewDirCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Experiments: []Experiment{{
		Name:    "faults",
		Traces:  []string{tr},
		Configs: "name=flaky:boot-fault=0.3:fault-seed=7",
		Repeats: 3,
		Seed:    1,
	}}}

	run := func(dir string) (*Outcome, string) {
		logger, _ := testLogger(t)
		r := &Runner{Out: dir, Cache: cache, Log: logger}
		out, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out.Experiments[0].Summary)
		if err != nil {
			t.Fatal(err)
		}
		return out, string(b)
	}

	cold, coldSummary := run(filepath.Join(t.TempDir(), "cold"))
	exp := cold.Experiments[0]
	// 1 trace × 1 fleet × (3 bounds + 1 config × 3 repeats) = 6 cells.
	if exp.Cells != 6 || exp.Computed != 6 {
		t.Fatalf("cold: cells=%d computed=%d, want 6/6", exp.Cells, exp.Computed)
	}
	lines := strings.Split(strings.TrimSpace(coldSummary), "\n")
	if lines[0] != "scenario,trace,config,fleet_scale,n,total_J_mean,total_J_std,total_J_ci95,availability_mean,availability_std,availability_ci95,decisions_mean,switch_ons_mean,switch_offs_mean,lost_requests_mean" {
		t.Fatalf("spread summary header = %s", lines[0])
	}
	// 3 bound groups (n=1, blank spread) + 1 BML group (n=3, real spread).
	if len(lines) != 5 {
		t.Fatalf("summary rows = %d, want 5:\n%s", len(lines), coldSummary)
	}
	var bml string
	for _, line := range lines[1:] {
		if strings.HasPrefix(line, "bml,") {
			bml = line
		} else if !strings.Contains(line, ",,") {
			t.Errorf("bound group should leave spread blank: %s", line)
		}
	}
	if bml == "" {
		t.Fatalf("no bml group row:\n%s", coldSummary)
	}
	fields := strings.Split(bml, ",")
	if fields[2] != "flaky" || fields[4] != "3" {
		t.Errorf("bml group row = %q: want base config name and n=3", bml)
	}
	if fields[6] == "" || fields[7] == "" {
		t.Errorf("repeated group has blank spread: %q", bml)
	}
	if strings.Contains(coldSummary, "NaN") {
		t.Errorf("summary contains NaN:\n%s", coldSummary)
	}
	// The repeats genuinely resampled the fault schedule: three distinct
	// repeat cells exist in the journal with distinct cell IDs.
	recs := readJournal(t, filepath.Join(exp.Dir, "cells.jsonl"))
	repeatIDs := map[string]bool{}
	for _, rec := range recs {
		if strings.HasPrefix(rec.Config, "flaky.r") {
			repeatIDs[rec.ID] = true
		}
	}
	if len(repeatIDs) != 3 {
		t.Errorf("distinct repeat cell IDs = %d, want 3", len(repeatIDs))
	}

	warm, warmSummary := run(filepath.Join(t.TempDir(), "warm"))
	wexp := warm.Experiments[0]
	if wexp.Computed != 0 || wexp.Hits != 6 {
		t.Fatalf("warm rerun computed %d cells (hits %d), want 0 (6)", wexp.Computed, wexp.Hits)
	}
	if warmSummary != coldSummary {
		t.Errorf("warm summary differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldSummary, warmSummary)
	}
}

func readJournal(t *testing.T, path string) []sim.CellRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := sim.ReadCellRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRunFailedCellPartial injects a failure into one repeat through the
// Sweep seam: the experiment must be marked incomplete (bmlpaper exit 1),
// the failing cell named, and the summary still written — as
// summary.partial.csv, with every rendered table carrying the PARTIAL
// banner — from the cells that did merge.
func TestRunFailedCellPartial(t *testing.T) {
	tr := writeTestTrace(t, "burst.txt")
	spec := Spec{Experiments: []Experiment{{
		Name:    "faults",
		Traces:  []string{tr},
		Configs: "name=flaky:boot-fault=0.3:fault-seed=7",
		Repeats: 3,
		Seed:    1,
	}}}
	logger, logged := testLogger(t)
	r := &Runner{Out: filepath.Join(t.TempDir(), "run"), Log: logger}
	r.Sweep = func(jobs []sim.SweepJob, workers int, sink sim.CellSink, cache sim.CellCache) (sim.CacheStats, error) {
		kept := jobs[:0:0]
		for _, j := range jobs {
			if j.ConfigName == "flaky.r2" {
				if err := sink.Emit(sim.CellRecord{Schema: sim.CellSchema, ID: sim.CellID(j),
					Name: j.Name, Scenario: string(j.Scenario), Config: j.ConfigName,
					Err: "injected boot loop"}); err != nil {
					return sim.CacheStats{}, err
				}
				continue
			}
			kept = append(kept, j)
		}
		return sim.SweepStreamToCache(kept, workers, sink, cache)
	}

	out, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete() {
		t.Fatal("outcome with a failed cell reported complete")
	}
	exp := out.Experiments[0]
	if !exp.Incomplete || len(exp.Failed) != 1 || len(exp.Missing) != 0 {
		t.Fatalf("result = %+v", exp)
	}
	if !strings.Contains(exp.Failed[0], "flaky.r2") {
		t.Errorf("failed cell ID = %q, want the flaky.r2 cell", exp.Failed[0])
	}
	if !strings.Contains(logged.String(), "failed cell:") {
		t.Errorf("failed cell not named in logs:\n%s", logged.String())
	}

	if filepath.Base(exp.Summary) != "summary.partial.csv" {
		t.Fatalf("summary = %s, want summary.partial.csv", exp.Summary)
	}
	if _, err := os.Stat(filepath.Join(exp.Dir, "summary.csv")); !os.IsNotExist(err) {
		t.Errorf("a partial run must not write summary.csv: %v", err)
	}
	summary, err := os.ReadFile(exp.Summary)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving repeats still aggregate: the flaky group has n=2.
	if !strings.Contains(string(summary), ",flaky,") {
		t.Errorf("partial summary lost the surviving repeats:\n%s", summary)
	}
	for _, name := range []string{"table.txt", "table.tex", "plot_total_kwh.txt"} {
		b, err := os.ReadFile(filepath.Join(exp.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "PARTIAL: 5 of 6 cells merged (0 missing, 1 failed)") {
			t.Errorf("%s lacks the PARTIAL banner:\n%s", name, b)
		}
	}
}

// TestRunMixedSchemaError pins that a stale-schema cache entry surfaces
// as a hard error (the bmlpaper exit-2 class) that names the experiment
// and wraps sim.ErrCellSchema.
func TestRunMixedSchemaError(t *testing.T) {
	tr := writeTestTrace(t, "burst.txt")
	cacheDir := filepath.Join(t.TempDir(), "cache")
	cache, err := sim.NewDirCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Experiments: []Experiment{{
		Name:   "ablation",
		Traces: []string{tr},
	}}}
	r := &Runner{Out: filepath.Join(t.TempDir(), "cold"), Cache: cache, Log: log.New(os.Stderr, "", 0)}
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}

	// Rewrite every cache entry as schema v1 — a cache written by an old
	// build.
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.jsonl"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache entries: %v, %v", entries, err)
	}
	for _, path := range entries {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		poisoned := strings.Replace(string(b), `"schema":2`, `"schema":1`, 1)
		if poisoned == string(b) {
			t.Fatalf("cache entry %s: no schema field to poison:\n%s", path, b)
		}
		if err := os.WriteFile(path, []byte(poisoned), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := &Runner{Out: filepath.Join(t.TempDir(), "warm"), Cache: cache, Log: log.New(os.Stderr, "", 0)}
	_, err = r2.Run(spec)
	if err == nil {
		t.Fatal("mixed-schema cache unexpectedly accepted")
	}
	if !errors.Is(err, sim.ErrCellSchema) {
		t.Errorf("error %v does not wrap sim.ErrCellSchema", err)
	}
	if !strings.Contains(err.Error(), `"ablation"`) {
		t.Errorf("error %v does not name the experiment", err)
	}
}

// TestRunLoadsEachTraceOnce: a run loads each trace file once per
// quantization, however many experiments name it, and still rejects two
// paths of one experiment that share a base filename, even when an
// earlier experiment loaded one of them.
func TestRunLoadsEachTraceOnce(t *testing.T) {
	shared := writeTestTrace(t, "shared.txt")
	other := writeTestTrace(t, "other.txt")
	calls := map[string]int{}
	load := func(paths []string, quantize int) ([]sim.TraceAxis, error) {
		for _, p := range paths {
			calls[fmt.Sprintf("%s@%d", filepath.Base(p), quantize)]++
		}
		return sim.LoadTraceAxes(paths, quantize)
	}
	spec := Spec{Experiments: []Experiment{
		{Name: "both", Traces: []string{shared, other}, Quantize: 600},
		{Name: "one", Traces: []string{shared}, Quantize: 600},
		{Name: "raw", Traces: []string{shared}},
	}}
	r := &Runner{Out: filepath.Join(t.TempDir(), "run"), LoadTraces: load, Log: log.New(io.Discard, "", 0)}
	out, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete() {
		t.Fatalf("outcome incomplete: %+v", out.Experiments)
	}
	want := map[string]int{"shared.txt@600": 1, "other.txt@600": 1, "shared.txt@0": 1}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("loads per file = %v, want %v", calls, want)
	}

	clash := filepath.Join(t.TempDir(), "shared.txt")
	if err := os.Link(shared, clash); err != nil {
		t.Fatal(err)
	}
	spec = Spec{Experiments: []Experiment{
		{Name: "first", Traces: []string{shared}},
		{Name: "clash", Traces: []string{shared, clash}},
	}}
	r = &Runner{Out: filepath.Join(t.TempDir(), "run"), LoadTraces: load, Log: log.New(io.Discard, "", 0)}
	_, err = r.Run(spec)
	if err == nil || !strings.Contains(err.Error(), `experiment "clash"`) || !strings.Contains(err.Error(), `share the base filename "shared.txt"`) {
		t.Fatalf("Run error = %v, want the base-filename collision in experiment clash", err)
	}
}
