// Command bmlsweep coordinates distributed scenario × fleet sweeps, over
// files or over the network:
//
//   - spawn N local bmlsim worker processes (one per shard) and merge
//     their JSONL outputs;
//   - merge JSONL result files produced elsewhere (e.g. by CI matrix jobs
//     running `bmlsim -sweep -shard i/N`);
//   - run an HTTP ingest coordinator (-serve) that workers on any host
//     stream cells to (`bmlsim -sweep -sink URL`), journaling every
//     received record so a killed run is resumable;
//   - resume an interrupted run from its journal (-resume), re-dispatching
//     only the cells no worker ever streamed.
//
// Every mode accepts -cache DIR|URL, a content-addressed result cache
// keyed by canonical cell ID: cached cells are served without
// re-simulating (coordinator-side priming plus -cache on every spawned
// worker), and merged successes are written back, making repeated sweeps
// over overlapping grids incremental.
//
// In every mode the merged records are validated against the expected
// grid — every cell present exactly once, no cells from a different grid,
// no failed cells — deduplicated (first success wins), and rendered
// through internal/report.
//
// Usage:
//
//	bmlsweep -spawn 4 -days 7 -quantize 300 -fleets 0,100,1000   # local fan-out
//	bmlsweep -days 7 -quantize 300 -fleets 0,100,1000 shard-*.jsonl  # merge CI artifacts
//	bmlsweep -spawn 2 -trace a.txt -trace b.txt \
//	         -configs "default,name=h13:headroom=1.3"            # ablation grid
//	bmlsweep -spawn 2 -csv > grid.csv                            # machine-readable merge
//	bmlsweep -serve 127.0.0.1:8080 -journal j.jsonl -fleets 0,1000   # network ingest
//	bmlsweep -serve 127.0.0.1:8080 -journal j.jsonl -spawn 4 -fleets 0,1000  # + local workers, auto re-dispatch
//	bmlsweep -resume j.jsonl -spawn 2 -fleets 0,1000             # re-dispatch only missing cells
//
// The grid flags (-days, -peak, -seed, -trace [repeatable], -quantize,
// -fleets, -configs) must match the ones the workers ran with: the
// coordinator re-enumerates the grid from them to know which cells to
// expect, and the canonical cell IDs embedded in each record (scenario,
// fleet scale, trace fingerprint, config fingerprint) make any mismatch —
// a different trace, a divergent BML config, a missing shard, a
// half-written file — a hard validation error instead of a silently wrong
// report.
//
// Exit codes (scriptable; also printed by -h):
//
//	0  grid complete: every expected cell merged and validated
//	1  grid incomplete: missing or failed cells, -wait timeout, interrupt
//	2  usage or I/O error: bad flags, unreadable inputs, bind failure
//
// Because workers stream each cell as it completes and the coordinator
// only ever holds the flattened per-cell records, the peak memory of a
// distributed sweep is one shard's working set, not the grid's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The bmlsweep exit-code contract. CI jobs branch on these (see the
// sweep-e2e job in .github/workflows/ci.yml), so they are part of the
// command's interface and pinned by cmd-level tests.
const (
	exitComplete   = 0 // every expected cell merged and validated
	exitIncomplete = 1 // missing/failed cells, timeout, or interrupted
	exitUsage      = 2 // bad flags, unreadable inputs, bind failure
)

// die logs and exits with the given contract code.
func die(code int, format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(code)
}

// gridFlags is the grid identity shared by every mode: coordinator and
// workers must enumerate the same grid from the same values.
type gridFlags struct {
	traceFiles []string
	days       int
	peak       float64
	seed       int64
	quantize   int
	fleets     string
	configs    string
}

// workerArgs renders the flags a spawned bmlsim worker needs to enumerate
// this same grid.
func (g gridFlags) workerArgs() []string {
	args := []string{"-sweep", "-fleets", g.fleets}
	if len(g.traceFiles) > 0 {
		for _, f := range g.traceFiles {
			args = append(args, "-trace", f)
		}
	} else {
		args = append(args,
			"-days", fmt.Sprint(g.days),
			"-peak", fmt.Sprint(g.peak),
			"-seed", fmt.Sprint(g.seed))
	}
	if g.quantize > 0 {
		args = append(args, "-quantize", fmt.Sprint(g.quantize))
	}
	if g.configs != "" {
		args = append(args, "-configs", g.configs)
	}
	return args
}

// repeatedString collects a repeatable string flag (-trace a.txt -trace
// b.txt) — each occurrence is one point of the grid's trace axis.
type repeatedString []string

func (r *repeatedString) String() string { return strings.Join(*r, ",") }

func (r *repeatedString) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bmlsweep: ")
	var traceFiles repeatedString
	flag.Var(&traceFiles, "trace", "replay this trace file instead of generating (repeatable: each file is one point of the grid's trace axis, named by its base filename)")
	var (
		days       = flag.Int("days", 92, "days to generate when no trace file is given")
		peak       = flag.Float64("peak", 5000, "generated trace peak rate")
		seed       = flag.Int64("seed", 1998, "generator seed")
		quantize   = flag.Int("quantize", 0, "hold the load constant over windows of this many seconds")
		fleets     = flag.String("fleets", "0", "comma-separated fleet targets of the grid")
		configs    = flag.String("configs", "", "comma-separated BML config axis (e.g. \"default,name=h13:headroom=1.3\"); must match the workers' -configs")
		spawn      = flag.Int("spawn", 0, "spawn this many local bmlsim worker processes, one per shard")
		bin        = flag.String("bin", "", "bmlsim binary for spawned workers (default: next to this executable, then $PATH)")
		dir        = flag.String("dir", "", "scratch directory for spawned shard outputs (default: a temp dir)")
		csv        = flag.Bool("csv", false, "emit the merged grid as CSV instead of a table")
		serve      = flag.String("serve", "", "run the HTTP ingest coordinator on this address (e.g. 127.0.0.1:8080; port 0 picks a free port) — workers stream to it with bmlsim -sink")
		journal    = flag.String("journal", "", "with -serve: append every received cell record to this JSONL journal; existing records prime the pending set, making the run resumable")
		resume     = flag.String("resume", "", "resume from this journal: load its records, re-dispatch only the missing cells to spawned workers, merge, report")
		wait       = flag.Duration("wait", 0, "with -serve: exit 1 after this long with the grid still incomplete (0 = wait forever)")
		redispatch = flag.Int("redispatch", 2, "with -serve -spawn: rounds of pending-cell re-dispatch after the initial workers exit")
		cacheSpec  = flag.String("cache", "", "content-addressed result cache, a local directory or a coordinator URL (http://...): cells already cached are served without re-simulating, merged successes are written back; spawned workers inherit the same cache")
		run        = flag.String("run", "", "named run on a multi-run coordinator: -serve hosts the local grid under this name (default \"default\"; /v1 aliases it), -register creates it remotely, and coordinator-URL caches address /v2/runs/{run} instead of the /v1 default run")
		register   = flag.String("register", "", "create the named run (-run) on the fleet coordinator at this base URL from the grid's canonical cell IDs (PUT /v2/runs/{run}), then exit — no trace files needed server-side")
		token      = flag.String("token", "", "bearer token: -serve requires it on every route, /v1 and /v2; client modes send it as Authorization: Bearer")
		runToken   = flag.String("run-token", "", "with -register: per-run bearer token accepted (alongside the coordinator's global -token) on the created run's endpoints")
		tlsCert    = flag.String("tls-cert", "", "with -serve: serve HTTPS with this PEM certificate (requires -tls-key); spawned workers automatically trust it")
		tlsKey     = flag.String("tls-key", "", "with -serve: the PEM private key for -tls-cert")
		tlsCA      = flag.String("tls-ca", "", "trust this PEM certificate (or CA bundle) when dialing an https:// coordinator (-register, coordinator-URL caches)")
		leaseTTL   = flag.Duration("lease-ttl", sim.DefaultLeaseTTL, "with -serve: worker lease TTL of every hosted run — claimed cells whose worker stops posting for this long are reclaimed and re-dispatched")
		journalDir = flag.String("journal-dir", "", "with -serve: directory of per-run JSONL journals (<run>.jsonl) for runs created remotely with -register")
	)
	flag.Usage = usage
	flag.Parse()

	files := flag.Args()
	serveMode := *serve != ""
	resumeMode := *resume != ""
	registerMode := *register != ""
	switch {
	case serveMode && resumeMode:
		die(exitUsage, "use either -serve (live coordinator, resumable via -journal) or -resume (offline re-dispatch), not both")
	case registerMode && (serveMode || resumeMode):
		die(exitUsage, "-register is a client of a remote coordinator; it conflicts with -serve and -resume")
	case serveMode && len(files) > 0:
		die(exitUsage, "-serve ingests records over HTTP; it does not take JSONL file arguments")
	case resumeMode && len(files) > 0:
		die(exitUsage, "-resume reads the journal; it does not take extra JSONL file arguments")
	case registerMode && (len(files) > 0 || *spawn > 0):
		die(exitUsage, "-register only creates the run remotely; workers stream it separately (bmlsim -sink URL -run NAME -claim N)")
	case *journal != "" && !serveMode:
		die(exitUsage, "-journal requires -serve (to read a journal back, use -resume)")
	case *journalDir != "" && !serveMode:
		die(exitUsage, "-journal-dir requires -serve")
	case *wait != 0 && !serveMode:
		die(exitUsage, "-wait requires -serve")
	case *wait < 0:
		die(exitUsage, "invalid -wait %v", *wait)
	case *leaseTTL <= 0:
		die(exitUsage, "invalid -lease-ttl %v", *leaseTTL)
	case (*tlsCert != "") != (*tlsKey != ""):
		die(exitUsage, "-tls-cert and -tls-key go together")
	case *tlsCert != "" && !serveMode:
		die(exitUsage, "-tls-cert/-tls-key require -serve (clients trust the coordinator with -tls-ca)")
	case *runToken != "" && !registerMode:
		die(exitUsage, "-run-token requires -register (with -serve, the default run uses the global -token)")
	case *redispatch < 0:
		die(exitUsage, "invalid -redispatch %d", *redispatch)
	case *spawn < 0:
		die(exitUsage, "invalid -spawn %d", *spawn)
	case !serveMode && !resumeMode && *spawn > 0 && len(files) > 0:
		die(exitUsage, "use either -spawn N or a list of JSONL files to merge, not both")
	case !serveMode && !resumeMode && !registerMode && *spawn == 0 && len(files) == 0:
		die(exitUsage, "nothing to do: give -spawn N, JSONL files to merge, -serve addr, -register URL, or -resume journal (see -h)")
	}

	grid := gridFlags{traceFiles: traceFiles, days: *days, peak: *peak,
		seed: *seed, quantize: *quantize, fleets: *fleets, configs: *configs}
	// Pure flag validation first: a malformed axis must exit 2 instantly,
	// not after generating a 92-day default trace.
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		die(exitUsage, "%v", err)
	}
	fleetAxis, err := sim.ParseFleets(*fleets)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	configAxis, err := sim.ParseConfigs(*configs)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	traces := buildTraces(grid)
	jobs, err := sim.Grid(traces, planner, configAxis, fleetAxis)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	// Result cache (-cache): opened once here so a bad spec is a usage
	// error in every mode; threaded to the serve/resume paths and, as the
	// original flag value, to every spawned worker so they skip cached
	// cells themselves.
	// One client serves the cache and the register call; a coordinator-URL
	// cache may itself be a named run behind auth and TLS, and directory
	// caches ignore the options.
	client, err := sim.HTTPClientWithCA(*tlsCA)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	var cache sim.CellCache
	if *cacheSpec != "" {
		coord := []sim.SinkOption{sim.WithSinkClient(client), sim.WithSinkRun(*run), sim.WithSinkToken(*token)}
		if cache, err = sim.OpenCellCache(*cacheSpec, coord...); err != nil {
			die(exitUsage, "%v", err)
		}
	}

	switch {
	case registerMode:
		os.Exit(runRegister(client, *register, jobs, *run, *runToken, *token))
	case serveMode:
		os.Exit(runServe(serveConfig{
			addr: *serve, run: *run, journal: *journal, journalDir: *journalDir,
			token: *token, tlsCert: *tlsCert, tlsKey: *tlsKey,
			leaseTTL: *leaseTTL, spawnN: *spawn, bin: *bin, dir: *dir, grid: grid,
			wait: *wait, redispatch: *redispatch, csv: *csv, cache: cache, cacheSpec: *cacheSpec,
		}, jobs))
	case resumeMode:
		os.Exit(runResume(*resume, jobs, *spawn, *bin, *dir, grid, *csv, cache, *cacheSpec))
	}

	spawned := *spawn > 0
	if spawned {
		files = spawnWorkers(*spawn, *bin, *dir, grid, cacheArgs(*cacheSpec), true)
	}

	records := readRecordFiles(files, spawned)

	// Cells the files do not cover may still be cached from an earlier run
	// (e.g. merging a partial set of CI artifacts over a warm cache): serve
	// those from the cache so only genuinely new cells can fail the merge.
	if cache != nil {
		covered := sim.NewIngest(jobs)
		if _, err := covered.Prime(records); err != nil {
			die(exitUsage, "%v", err)
		}
		hits := serveFromCache(cache, covered.Pending(), func(rec sim.CellRecord) error {
			records = append(records, rec)
			return nil
		})
		if hits > 0 {
			log.Printf("cache: %d cells served from cache", hits)
		}
	}

	cells, stats, err := sim.MergeCells(jobs, records)
	if err != nil {
		if errors.Is(err, sim.ErrCellSchema) {
			// Not an incomplete grid: re-dispatching can never fix a
			// schema mismatch, so it is a usage error (exit 2), matching
			// what the journal paths (-serve/-resume priming) return.
			die(exitUsage, "%v", err)
		}
		printMergeDiagnostics(stats)
		die(exitIncomplete, "%v", err)
	}
	log.Printf("merged %d records from %d files into %d cells (%d duplicates deduplicated)",
		stats.Records, len(files), len(cells), stats.Duplicates)
	writeBackCache(cache, cells)
	os.Exit(render(cells, *csv))
}

// cacheArgs renders the -cache flag for a spawned bmlsim worker, so the
// workers consult and fill the same cache the coordinator does.
func cacheArgs(spec string) []string {
	if spec == "" {
		return nil
	}
	return []string{"-cache", spec}
}

// readRecordFiles reads JSONL worker outputs in order. With fromWorkers
// (files this process's spawned workers wrote), a missing or half-written
// file — a worker that crashed — is logged and skipped, so the merge
// diagnostics can name exactly which cells are missing; otherwise an
// unreadable input is a usage error.
func readRecordFiles(files []string, fromWorkers bool) []sim.CellRecord {
	var records []sim.CellRecord
	for _, name := range files {
		f, err := os.Open(name)
		var recs []sim.CellRecord
		if err == nil {
			recs, err = sim.ReadCellRecords(f)
			f.Close()
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
		}
		if err != nil {
			if !fromWorkers {
				die(exitUsage, "%v", err)
			}
			log.Printf("skipping %v", err)
			continue
		}
		records = append(records, recs...)
	}
	return records
}

// serveFromCache looks up every pending cell ID in the cache and hands each
// hit, marked Cached, to add — the one loop that fills still-uncovered
// cells from a result cache, for file merges and for the coordinator's
// priming alike. It returns the number of hits; a broken cache or a
// failed add is a usage error.
func serveFromCache(cache sim.CellCache, pending []string, add func(sim.CellRecord) error) int {
	hits := 0
	for _, id := range pending {
		rec, ok, err := cache.Get(id)
		if err != nil {
			die(exitUsage, "%v", err)
		}
		if !ok {
			continue
		}
		rec.Cached = true
		if err := add(rec); err != nil {
			die(exitUsage, "cache prime: %v", err)
		}
		hits++
	}
	return hits
}

// writeBackCache stores every merged cell in the cache so the next run
// over this grid starts warm. Cells marked Cached came FROM the cache (or
// from a worker that already wrote them back) and are skipped; failures
// are logged, not fatal — the cache is an accelerator, and the merge it
// would have served is already complete and validated.
func writeBackCache(cache sim.CellCache, cells []sim.CellRecord) {
	if cache == nil {
		return
	}
	wrote := 0
	for _, c := range cells {
		if c.Cached {
			continue
		}
		if err := cache.Put(c); err != nil {
			log.Printf("cache write-back stopped after %d cells: %v", wrote, err)
			return
		}
		wrote++
	}
	if wrote > 0 {
		log.Printf("cache: wrote back %d fresh cells", wrote)
	}
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `bmlsweep coordinates distributed scenario × fleet sweeps.

Modes:
  bmlsweep -spawn N <grid flags>              spawn N local workers, merge, report
  bmlsweep <grid flags> a.jsonl b.jsonl       merge worker JSONL files, report
  bmlsweep -serve addr [-journal j.jsonl] [-spawn N] [-wait d] <grid flags>
      run the HTTP fleet coordinator. The local grid becomes the default
      run, which /v1 aliases (POST /v1/cells, GET /v1/pending, GET
      /v1/status, POST /v1/lease) for `+"`bmlsim -sweep -sink http://addr`"+`
      workers; further named runs are hosted concurrently on
      /v2/runs/{run}/... (journaled per run under -journal-dir). -token
      guards every route, optionally over TLS. Workers may
      also claim cells under a TTL lease (`+"`bmlsim -claim N`"+`); a stalled
      worker's leases expire and its cells are re-dispatched. With -spawn,
      workers are launched locally and pending cells are automatically
      re-dispatched when a worker dies. Exits 0 when every hosted run
      completes.
  bmlsweep -register URL -run NAME <grid flags>
      create the named run on a remote coordinator from the grid's
      canonical cell IDs (PUT /v2/runs/{run}) — the coordinator never
      needs the trace files — then exit.
  bmlsweep -resume j.jsonl [-spawn N] <grid flags>
      load a journal, compute the missing cell set against the
      re-enumerated grid, re-dispatch only those cells, merge, report.

Any mode takes -cache DIR|URL: cells whose canonical ID is already in the
content-addressed result cache are served from it (shown as cached in the
report), only the rest are computed, and merged successes are written
back — so re-running a tweaked grid only pays for what the tweak changed.

Exit codes:
  %d  grid complete: every expected cell merged and validated
  %d  grid incomplete: missing or failed cells, -wait timeout, interrupt
  %d  usage or I/O error: bad flags, unreadable inputs, bind failure

Flags:
`, exitComplete, exitIncomplete, exitUsage)
	flag.PrintDefaults()
}

// printMergeDiagnostics names every cell that keeps a merge from
// completing.
func printMergeDiagnostics(stats sim.MergeStats) {
	for _, id := range stats.Missing {
		log.Printf("missing cell: %s", id)
	}
	for _, id := range stats.Failed {
		log.Printf("failed cell: %s", id)
	}
	for _, id := range stats.Unknown {
		log.Printf("foreign record (not in this grid): %s", id)
	}
}

// render writes the merged grid report and returns the exit code.
func render(cells []sim.CellRecord, csv bool) int {
	var err error
	if csv {
		err = report.SweepCSV(os.Stdout, cells)
	} else {
		err = report.SweepTable(os.Stdout, cells)
	}
	if err != nil {
		log.Print(err)
		return exitUsage
	}
	return exitComplete
}

// buildTraces mirrors bmlsim's trace construction so coordinator and
// workers enumerate the same grid from the same flags: trace files load
// through the shared sim.LoadTraceAxes (base-filename axis naming — the
// contract both sides derive cell names from); with no files, the single
// generated trace is unnamed.
func buildTraces(grid gridFlags) []sim.TraceAxis {
	if grid.quantize < 0 {
		die(exitUsage, "invalid -quantize %d", grid.quantize)
	}
	if len(grid.traceFiles) > 0 {
		traces, err := sim.LoadTraceAxes(grid.traceFiles, grid.quantize)
		if err != nil {
			die(exitUsage, "%v", err)
		}
		return traces
	}
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = grid.days
	cfg.PeakRate = grid.peak
	cfg.Seed = grid.seed
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	if grid.quantize > 0 {
		if tr, err = tr.Quantize(grid.quantize); err != nil {
			die(exitUsage, "%v", err)
		}
	}
	return []sim.TraceAxis{{Trace: tr}}
}

// spawnWorkers runs one `bmlsim -sweep -shard i/N` process per shard
// concurrently, appending extra to each worker's arguments (e.g. a -sink
// URL or an -only pending file). With withOut, each shard streams to its
// own JSONL file in dir and the files are returned; without it the
// workers' sinks (extra) carry the records and the result is nil. Worker
// failures are logged, never fatal: the merge diagnostics downstream name
// exactly which cells are missing.
func spawnWorkers(n int, bin, dir string, grid gridFlags, extra []string, withOut bool) []string {
	if bin == "" {
		bin = findWorkerBinary()
	}
	if withOut && dir == "" {
		d, err := os.MkdirTemp("", "bmlsweep")
		if err != nil {
			die(exitUsage, "%v", err)
		}
		dir = d
	}
	args := append(grid.workerArgs(), extra...)

	var files []string
	if withOut {
		files = make([]string, n)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		workerArgs := append(append([]string{}, args...),
			"-shard", fmt.Sprintf("%d/%d", i, n))
		if withOut {
			files[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
			workerArgs = append(workerArgs, "-out", files[i])
		}
		wg.Add(1)
		go func(i int, argv []string) {
			defer wg.Done()
			cmd := exec.Command(bin, argv...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				errs[i] = fmt.Errorf("worker %d/%d: %v\n%s", i, n, err, strings.TrimSpace(string(out)))
			}
		}(i, workerArgs)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
			log.Print(err)
		}
	}
	if failed > 0 {
		log.Printf("%d of %d workers failed; merging what was streamed", failed, n)
	}
	if withOut {
		log.Printf("spawned %d workers (%s), outputs in %s", n, bin, dir)
	} else {
		log.Printf("spawned %d workers (%s)", n, bin)
	}
	return files
}

// findWorkerBinary prefers the bmlsim next to this executable (the way
// `go build ./cmd/...` lays binaries out), falling back to $PATH.
func findWorkerBinary() string {
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "bmlsim")
		if _, err := os.Stat(sibling); err == nil {
			return sibling
		}
	}
	return "bmlsim"
}

// writePendingFile persists canonical cell IDs, one per line — the -only
// input for re-dispatched workers.
func writePendingFile(ids []string) string {
	f, err := os.CreateTemp("", "bmlsweep-pending-*.txt")
	if err != nil {
		die(exitUsage, "%v", err)
	}
	for _, id := range ids {
		if _, err := fmt.Fprintln(f, id); err != nil {
			die(exitUsage, "%v", err)
		}
	}
	if err := f.Close(); err != nil {
		die(exitUsage, "%v", err)
	}
	return f.Name()
}
