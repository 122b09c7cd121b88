// Command bmlpaper regenerates the paper's evaluation from one
// declarative spec: it reads an experiments.json (named experiments, each
// a scenario × trace × fleet × config grid with repeats and seeded fault
// schedules as grid axes), runs every experiment through the same
// sim.Grid / cell-cache machinery the distributed sweeps use, validates
// completeness against the re-enumerated grids, and writes the analysis —
// merged cells, repeat-grouped mean/std/CI summary CSVs, text and LaTeX
// tables, error-bar plots — under <out>/<stamp>/<experiment>/.
//
// With -cache, cells already computed by any earlier run (bmlpaper or
// bmlsweep) are served from the content-addressed cache, so a warm re-run
// recomputes nothing and reproduces the summary artifacts byte for byte.
//
// Usage:
//
//	bmlpaper -spec examples/paper/experiments.json -cache cells.cache
//	bmlpaper -spec experiments.json -only faults -stamp rerun1
//	bmlpaper -spec experiments.json -validate        # check the spec, run nothing
//
// Exit codes (scriptable; also printed by -h):
//
//	0  every experiment complete: all grids merged and validated
//	1  one or more experiments incomplete (missing or failed cells)
//	2  usage, spec-validation, or I/O error
//
// See docs/REPRODUCING.md for the full reproduction handbook.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/paper"
	"repro/internal/sim"
)

// The bmlpaper exit-code contract, mirroring bmlsweep's: CI's
// paper-pipeline job branches on these.
const (
	exitComplete   = 0 // every experiment's grid merged and validated
	exitIncomplete = 1 // at least one experiment has missing/failed cells
	exitUsage      = 2 // bad flags, invalid spec, unreadable inputs
)

func die(code int, format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(code)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bmlpaper: ")
	var (
		specPath  = flag.String("spec", "", "experiments.json to run (required; see docs/REPRODUCING.md for the schema)")
		out       = flag.String("out", "paper_runs", "parent directory for run artifacts")
		stamp     = flag.String("stamp", "", "run directory name under -out (default: a UTC timestamp)")
		cacheSpec = flag.String("cache", "", "content-addressed result cache, a local directory or a coordinator URL (http://...); warm re-runs recompute nothing")
		run       = flag.String("run", "", "with a coordinator-URL -cache: address this named run (/v2/runs/{run}/cells) instead of the /v1 default run")
		token     = flag.String("token", "", "with a coordinator-URL -cache: bearer token sent as Authorization: Bearer")
		tlsCA     = flag.String("tls-ca", "", "with a coordinator-URL -cache: trust this PEM certificate (or CA bundle) for https://")
		workers   = flag.Int("workers", 0, "concurrent cell simulations per experiment (0 = GOMAXPROCS)")
		only      = flag.String("only", "", "run only these comma-separated experiment names from the spec")
		validate  = flag.Bool("validate", false, "validate the spec and print the run plan without executing")
	)
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() > 0 {
		die(exitUsage, "unexpected arguments %q (the spec comes from -spec)", flag.Args())
	}
	if *specPath == "" {
		die(exitUsage, "-spec is required (see -h)")
	}
	if *workers < 0 {
		die(exitUsage, "invalid -workers %d", *workers)
	}
	spec, err := paper.LoadSpec(*specPath)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	if *only != "" {
		if spec, err = filterSpec(spec, *only); err != nil {
			die(exitUsage, "%v", err)
		}
	}
	if *validate {
		fmt.Printf("%s: %d experiment(s) valid\n", *specPath, len(spec.Experiments))
		for _, e := range spec.Experiments {
			fmt.Printf("  %s\n", e.Name)
		}
		os.Exit(exitComplete)
	}

	var cache sim.CellCache
	if *cacheSpec != "" {
		// A coordinator-URL cache may be a named run behind auth/TLS;
		// directory caches ignore the options.
		client, cerr := sim.HTTPClientWithCA(*tlsCA)
		if cerr != nil {
			die(exitUsage, "%v", cerr)
		}
		coord := []sim.SinkOption{sim.WithSinkClient(client), sim.WithSinkRun(*run), sim.WithSinkToken(*token)}
		if cache, err = sim.OpenCellCache(*cacheSpec, coord...); err != nil {
			die(exitUsage, "%v", err)
		}
	}
	name := *stamp
	if name == "" {
		name = time.Now().UTC().Format("2006-01-02_150405")
	}
	runDir := filepath.Join(*out, name)

	r := &paper.Runner{Out: runDir, Cache: cache, Workers: *workers}
	outcome, err := r.Run(spec)
	if err != nil {
		// Hard errors — unloadable traces, schema-mismatched caches, broken
		// artifact I/O — are the usage/IO class; incompleteness is not an
		// error here but a labeled outcome, handled below as exit 1.
		die(exitUsage, "%v", err)
	}
	log.Printf("run complete: artifacts in %s", runDir)
	if !outcome.Complete() {
		for _, e := range outcome.Experiments {
			if e.Incomplete {
				log.Printf("experiment %s incomplete: %d missing, %d failed cells (partial summary: %s)",
					e.Name, len(e.Missing), len(e.Failed), e.Summary)
			}
		}
		os.Exit(exitIncomplete)
	}
	os.Exit(exitComplete)
}

// filterSpec restricts the spec to the named experiments, keeping spec
// order; unknown names are a usage error, not a silent no-op.
func filterSpec(spec paper.Spec, only string) (paper.Spec, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return paper.Spec{}, errors.New("empty name in -only")
		}
		want[name] = true
	}
	var kept []paper.Experiment
	for _, e := range spec.Experiments {
		if want[e.Name] {
			kept = append(kept, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for name := range want {
			missing = append(missing, name)
		}
		return paper.Spec{}, fmt.Errorf("-only names %s: not in the spec", strings.Join(missing, ", "))
	}
	return paper.Spec{Experiments: kept}, nil
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `bmlpaper regenerates the paper's evaluation from a declarative spec.

  bmlpaper -spec experiments.json [-cache DIR|URL] [-out paper_runs] [-stamp NAME]

Each experiment in the spec enumerates a scenario × trace × fleet × config
grid (with repeats as seeded grid cells), runs it through the shared cell
cache, validates completeness, and writes per-experiment artifacts under
<out>/<stamp>/<experiment>/: cells.jsonl, cells.csv, summary.csv (or
summary.partial.csv when incomplete), table.txt, table.tex, and
plot_total_kwh.txt. docs/REPRODUCING.md documents the spec schema and the
artifact layout.

Exit codes:
  %d  every experiment complete: all grids merged and validated
  %d  one or more experiments incomplete (missing or failed cells)
  %d  usage, spec-validation, or I/O error

Flags:
`, exitComplete, exitIncomplete, exitUsage)
	flag.PrintDefaults()
}
