package main

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bml"
	"repro/internal/sim"
)

// Sweep worker mode (-sweep): enumerate the scenario × trace × fleet ×
// config grid, keep only the cells of this worker's shard (-shard i/N) — further
// restricted to an explicit cell set with -only (how a coordinator
// re-dispatches exactly the cells a crashed worker never streamed — see
// GET /v1/pending) — and stream each completed cell as one self-describing
// record to any combination of a local JSONL file (-out) and a bmlsweep
// ingest endpoint (-sink URL, POST /v1/cells with retry/backoff). Nothing
// is accumulated: peak memory is bounded by the cells in flight, so
// fleet-scaled grids far larger than one machine's memory run as N worker
// processes whose outputs cmd/bmlsweep merges and validates.
//
// -claim N replaces the static shard split with coordinator-driven work
// stealing: the worker repeatedly leases up to N pending cells from the
// coordinator (POST /v1/lease, or /v2/runs/{run}/lease), streams them
// (every post renews its leases — the heartbeat), and polls again until
// the run completes. Workers join and leave freely, a fast host simply claims
// more batches, and a stalled worker's cells become claimable again when
// its lease TTL passes. -run names the coordinator run to work on (the
// /v1 default run otherwise); -token/-tls-ca authenticate and trust an
// access-controlled or HTTPS coordinator.
//
// -cache DIR|URL puts a content-addressed result store in front of the
// worker: cells whose canonical ID already has a cached success are
// emitted straight to the sinks (marked "cached":true) without
// simulating, and fresh successes are written back — so re-running a
// tweaked grid only pays for the cells the tweak actually changed.
//
// On SIGINT/SIGTERM the worker stops taking new cells, flushes the sinks
// so every completed cell is durable, and exits 1. -die-after N instead
// aborts the process the instant the Nth cell has been emitted — fault
// injection for the kill-and-resume end-to-end tests (exit code 3) —
// while -stall-after N hangs the process alive with its leases held, the
// stalled-worker failure mode the coordinator's lease supervisor exists
// for.

// dieAfterExitCode distinguishes deliberate fault injection from real
// failures in the resume end-to-end tests.
const dieAfterExitCode = 3

// sweepOpts carries -sweep's flag surface.
type sweepOpts struct {
	fleets     string           // -fleets (or the -fleet fallback)
	shard      string           // -shard i/N
	out        string           // -out JSONL path
	sink       string           // -sink coordinator URL
	only       string           // -only cell-ID file
	cacheSpec  string           // -cache DIR|URL
	run        string           // -run: named coordinator run ("" = /v1 default run)
	token      string           // -token: bearer token for sink/lease/cache posts
	client     *http.Client     // trusts -tls-ca; built once per process
	coord      []sim.SinkOption // client, run and token: every coordinator call's options
	claim      int              // -claim: lease up to N cells per poll (0 = shard mode)
	dieAfter   int              // -die-after: abort (exit 3) after N emitted cells
	stallAfter int              // -stall-after: hang (leases held) after N emitted cells
}

// openCache opens -cache with the sink's coordinator options (directory
// caches ignore them).
func (o sweepOpts) openCache() sim.CellCache {
	if o.cacheSpec == "" {
		return nil
	}
	cache, err := sim.OpenCellCache(o.cacheSpec, o.coord...)
	if err != nil {
		log.Fatal(err)
	}
	return cache
}

// cellWorker is the per-process emit state shared by shard and claim
// modes, and the sim.CellSink that sim.SweepStreamToCache feeds: it
// forwards each record to the sink stack, logs and counts it, and applies
// the fault-injection and graceful-shutdown hooks to computed cells.
type cellWorker struct {
	sinks      sim.MultiSink
	cache      sim.CellCache
	dieAfter   int
	stallAfter int
	stopping   atomic.Bool
	done       int      // cells computed and emitted
	hits       int      // cells served from cache
	failed     int      // computed cells that ended in error
	failedIDs  []string // their canonical IDs (claim mode skips re-claims)
	total      int      // progress-line denominator (shard size / cells claimed)
}

// notifyStop arms the graceful-shutdown signal handler.
func (w *cellWorker) notifyStop() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		log.Printf("received %v: finishing in-flight cells, flushing sinks", s)
		w.stopping.Store(true)
	}()
}

// stream runs batch through the result cache (when -cache is set) and the
// simulator, emitting every cell into the worker: cached cells first, then
// each computed cell as it completes, written back to the cache before it
// reaches the sinks.
func (w *cellWorker) stream(batch []sim.SweepJob) error {
	_, err := sim.SweepStreamToCache(batch, 0, w, w.cache)
	return err
}

// Emit forwards rec to the sinks, then accounts for it. A computed cell
// may trip -die-after or -stall-after, and once a shutdown signal has
// arrived it returns sim.ErrStopStream so in-flight cells drain and no new
// ones start.
func (w *cellWorker) Emit(rec sim.CellRecord) error {
	if err := w.sinks.Emit(rec); err != nil {
		return err
	}
	if rec.Cached {
		w.hits++
		log.Printf("cell %s served from cache (%d/%d)", rec.Name, w.hits, w.total)
		return nil
	}
	w.done++
	if rec.Err != "" {
		w.failed++
		w.failedIDs = append(w.failedIDs, rec.ID)
		log.Printf("cell %s failed: %s", rec.Name, rec.Err)
	} else {
		log.Printf("cell %s done in %.1f ms (%d/%d)", rec.Name, rec.WallMS, w.hits+w.done, w.total)
	}
	if w.dieAfter > 0 && w.done >= w.dieAfter {
		// Simulated crash: no flush, no file close — exactly what the
		// journal + pending-set resume machinery must tolerate.
		log.Printf("fault injection: aborting after %d streamed cells", w.done)
		os.Exit(dieAfterExitCode)
	}
	if w.stallAfter > 0 && w.done >= w.stallAfter {
		// Simulated hang: the process stays alive holding its leases —
		// no connection ever errors, so only lease expiry can free the
		// cells. This is the failure the lease supervisor exists for.
		log.Printf("fault injection: stalling after %d streamed cells (process alive, leases held)", w.done)
		select {}
	}
	if w.stopping.Load() {
		return sim.ErrStopStream
	}
	return nil
}

// Close is a no-op: the worker closes its sink stack itself, once, after
// its last batch (claim mode streams many batches into the same sinks).
func (w *cellWorker) Close() error { return nil }

func runSweepMode(traces []sim.TraceAxis, planner *bml.Planner, configAxis []sim.ConfigAxis, opts sweepOpts) {
	fleets, err := sim.ParseFleets(opts.fleets)
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := sim.Grid(traces, planner, configAxis, fleets)
	if err != nil {
		log.Fatal(err)
	}
	if opts.claim > 0 {
		runClaimMode(jobs, opts)
		return
	}
	spec := sim.Whole
	if opts.shard != "" {
		if spec, err = sim.ParseShard(opts.shard); err != nil {
			log.Fatal(err)
		}
	}
	shard, err := sim.ShardJobs(jobs, spec)
	if err != nil {
		log.Fatal(err)
	}
	if opts.only != "" {
		shard = filterOnly(shard, jobs, opts.only)
	}

	// Assemble the sink stack: -out file and/or -sink endpoint; plain
	// stdout JSONL when neither is given.
	w := &cellWorker{dieAfter: opts.dieAfter, stallAfter: opts.stallAfter}
	var outFile *os.File
	if opts.out != "" && opts.out != "-" {
		f, err := os.Create(opts.out)
		if err != nil {
			log.Fatal(err)
		}
		outFile = f
		w.sinks = append(w.sinks, sim.NewWriterSink(f))
	}
	if opts.sink != "" {
		// Identify this worker (host:pid:shard) so the coordinator's
		// per-remote liveness view names which shard went quiet.
		host, _ := os.Hostname()
		worker := fmt.Sprintf("%s:%d:shard=%s", host, os.Getpid(), spec)
		hs, err := sim.NewHTTPSink(opts.sink, append(opts.coord, sim.WithSinkWorker(worker))...)
		if err != nil {
			log.Fatal(err)
		}
		w.sinks = append(w.sinks, hs)
	}
	if len(w.sinks) == 0 {
		w.sinks = append(w.sinks, sim.NewWriterSink(os.Stdout))
	}

	// Result cache (-cache DIR|URL): cells whose canonical ID already has a
	// cached success are emitted straight to the sinks — marked cached, so
	// reports and the CI warm-pass gate can count them — and only the
	// misses go through the simulator. Fresh successes are written back
	// before they are emitted, so the instant a cell is durable on the
	// sinks it is also hittable by the next run.
	w.cache = opts.openCache()
	w.total = len(shard)

	// Graceful shutdown: a signal stops new cells, but every cell already
	// in flight is still emitted (sim.ErrStopStream drains the stream),
	// then the sinks flush below — nothing already computed is discarded.
	w.notifyStop()

	err = w.stream(shard)
	ferr := w.sinks.Close()
	if outFile != nil {
		if cerr := outFile.Close(); cerr != nil && ferr == nil {
			ferr = cerr
		}
	}
	switch {
	case errors.Is(err, sim.ErrStopStream):
		if ferr != nil {
			log.Fatalf("flush after interrupt: %v", ferr)
		}
		log.Fatalf("interrupted: %d/%d cells streamed and flushed; resume with the coordinator's /v1/pending set", w.hits+w.done, w.total)
	case err != nil:
		log.Fatal(err)
	case ferr != nil:
		log.Fatal(ferr)
	}
	if w.cache != nil {
		// The warm-pass CI gate greps this line to assert zero recomputed
		// cells; keep "computed 0" spellable from it.
		log.Printf("shard %s: cache served %d cells, computed %d", spec, w.hits, w.done)
	}
	log.Printf("shard %s: streamed %d/%d cells of a %d-cell grid", spec, w.hits+w.done, w.total, len(jobs))
	if w.failed > 0 {
		log.Fatalf("%d of %d cells failed", w.failed, w.total)
	}
	if w.hits+w.done != w.total {
		log.Fatalf("streamed %d cells, expected %d", w.hits+w.done, w.total)
	}
}

// runClaimMode is the lease-based worker loop: claim up to -claim pending
// cells from the coordinator run, stream them (each post renews the
// worker's leases), and poll again until the run reports complete. The
// claim endpoint hands out cells no other live worker holds, so any
// number of claim workers share a run without a pre-agreed shard split.
func runClaimMode(jobs []sim.SweepJob, opts sweepOpts) {
	host, _ := os.Hostname()
	worker := fmt.Sprintf("%s:%d:claim", host, os.Getpid())
	w := &cellWorker{dieAfter: opts.dieAfter, stallAfter: opts.stallAfter}
	hs, err := sim.NewHTTPSink(opts.sink, append(opts.coord, sim.WithSinkWorker(worker))...)
	if err != nil {
		log.Fatal(err)
	}
	w.sinks = sim.MultiSink{hs}
	w.cache = opts.openCache()
	w.notifyStop()
	byID := make(map[string]sim.SweepJob, len(jobs))
	for _, j := range jobs {
		byID[sim.CellID(j)] = j
	}
	// A failed cell stays pending on the coordinator and this worker still
	// holds its lease, so the next claim would hand it straight back:
	// skip cells this worker already attempted, and give up when nothing
	// else is on offer rather than spin on deterministic failures.
	attempted := make(map[string]bool)
	interrupted := false
	for !interrupted {
		lr, err := sim.ClaimCells(opts.client, opts.sink, opts.run, opts.token, worker, opts.claim)
		if err != nil {
			w.sinks.Close()
			log.Fatal(err)
		}
		if len(lr.Cells) == 0 {
			if lr.Complete {
				break
			}
			// Every pending cell is leased to another live worker; poll
			// again after a fraction of the TTL — a stalled peer's cells
			// become claimable the moment its lease expires.
			if w.stopping.Load() {
				interrupted = true
				break
			}
			time.Sleep(sim.LeasePoll(lr.TTLSeconds))
			continue
		}
		var batch []sim.SweepJob
		for _, id := range lr.Cells {
			j, ok := byID[id]
			if !ok {
				log.Fatalf("claimed cell %q is not in this grid (mismatched grid flags between worker and coordinator?)", id)
			}
			if attempted[id] {
				continue
			}
			batch = append(batch, j)
		}
		if len(batch) == 0 {
			w.sinks.Close()
			log.Fatalf("coordinator keeps offering %d cells this worker already failed; giving up", len(lr.Cells))
		}
		w.total += len(batch)
		log.Printf("claimed %d cells (lease TTL %.0fs, %d still pending)", len(batch), lr.TTLSeconds, lr.Pending)
		before := len(w.failedIDs)
		err = w.stream(batch)
		for _, id := range w.failedIDs[before:] {
			attempted[id] = true
		}
		if errors.Is(err, sim.ErrStopStream) {
			interrupted = true
		} else if err != nil {
			w.sinks.Close()
			log.Fatal(err)
		} else if hs.RunComplete() {
			// A post's acknowledgement said the run is complete: do not
			// claim again from a coordinator that may be shutting down.
			break
		}
	}
	ferr := w.sinks.Close()
	if interrupted {
		if ferr != nil {
			log.Fatalf("flush after interrupt: %v", ferr)
		}
		log.Fatalf("interrupted: %d cells streamed and flushed; the coordinator re-leases the rest", w.hits+w.done)
	}
	if ferr != nil {
		log.Fatal(ferr)
	}
	if w.cache != nil {
		log.Printf("claim worker %s: cache served %d cells, computed %d", worker, w.hits, w.done)
	}
	run := opts.run
	if run == "" {
		run = "(default)"
	}
	log.Printf("claim worker %s: run %s complete after streaming %d cells of a %d-cell grid", worker, run, w.hits+w.done, len(jobs))
	if w.failed > 0 {
		log.Fatalf("%d of %d cells failed", w.failed, w.total)
	}
}

// filterOnly restricts shard to the canonical cell IDs listed in path (one
// per line, "-" for stdin; blank lines and #-comments ignored) — the
// re-dispatch contract: a coordinator's /v1/pending output fed straight
// back into a worker. IDs that do not belong to the enumerated grid are a
// hard error (they mean worker and coordinator disagree about the grid
// flags); IDs owned by other shards are silently skipped so -only and
// -shard compose.
func filterOnly(shard, grid []sim.SweepJob, path string) []sim.SweepJob {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	want := map[string]bool{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		id := strings.TrimSpace(sc.Text())
		if id == "" || strings.HasPrefix(id, "#") {
			continue
		}
		want[id] = true
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	inGrid := map[string]bool{}
	for _, j := range grid {
		inGrid[sim.CellID(j)] = true
	}
	for id := range want {
		if !inGrid[id] {
			log.Fatalf("-only cell %q is not in this grid (mismatched grid flags between worker and coordinator?)", id)
		}
	}
	var out []sim.SweepJob
	for _, j := range shard {
		if want[sim.CellID(j)] {
			out = append(out, j)
		}
	}
	log.Printf("-only: restricted to %d of %d shard cells (%d requested)", len(out), len(shard), len(want))
	return out
}
