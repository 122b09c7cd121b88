package main

// The network coordinator (-serve), journal resume (-resume), and remote
// run registration (-register) modes.
//
// -serve runs internal/sim's Fleet handler on a TCP listener: the grid the
// local flags describe becomes the default run (which /v1 aliases, so
// workers that name no run reach it), and any number of further named
// runs are hosted concurrently — created remotely with PUT /v2/runs/{run}
// (bmlsweep -register) and journaled per run under -journal-dir. Workers
// stream completed cells to POST /v1/cells or /v2/runs/{run}/cells
// (bmlsim -sink URL [-run NAME]), and every state-changing record is
// appended to the run's journal before it is acknowledged. The pending set
// is always derivable as a set difference — re-enumerated grid minus
// journaled successes — which is what makes the whole construction
// resumable: restart the coordinator with the same -journal/-journal-dir
// and it primes itself from disk; or run `bmlsweep -resume j.jsonl` to
// re-dispatch only the missing cells to fresh local workers.
//
// With -spawn N the coordinator also launches the workers itself (each
// told -sink back to the coordinator), and when they exit with cells
// still pending — a crashed or killed worker — it re-dispatches just the
// pending set (-redispatch rounds) before giving up with exit 1.
//
// The lease supervisor closes the stalled-worker gap the same way: cells
// claimed under a TTL lease (bmlsim -claim) whose worker stops posting —
// hung, not dead, so no connection ever errors — are reclaimed when the
// lease expires, logged, and (for the default run, whose grid flags the
// coordinator knows) re-dispatched to a locally spawned worker; other
// runs' reclaimed cells return to the claimable pool for their own
// workers' next poll.
//
// -token guards every route, /v1 and /v2, with a bearer token;
// -tls-cert/-tls-key serve HTTPS, with workers pointing -tls-ca at the
// certificate.

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so slow or stalled connections cannot pin the coordinator's
// connection slots.
const readHeaderTimeout = 10 * time.Second

// openJournalFile reads any records already in the journal (resuming an
// interrupted run) and opens it for appending. A truncated final line — a
// coordinator killed mid-append, the very failure the journal recovers
// from — is dropped with a warning; the half-written cell simply stays
// pending and is re-dispatched.
func openJournalFile(path string) (primed []sim.CellRecord, w io.Writer, closeFn func(), err error) {
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var truncated bool
		if primed, truncated, err = sim.ReadJournal(bytes.NewReader(raw)); err != nil {
			return nil, nil, nil, fmt.Errorf("journal %s: %w", path, err)
		}
		if truncated {
			log.Printf("journal %s: dropped a truncated final line (killed mid-append); its cell stays pending", path)
			// Rewrite the valid prefix before appending: a new record
			// written after the partial tail would concatenate onto it and
			// corrupt the journal for the NEXT resume.
			repair := path + ".repair"
			tf, err := os.Create(repair)
			if err != nil {
				return nil, nil, nil, err
			}
			for _, rec := range primed {
				if err := sim.WriteCellRecord(tf, rec); err != nil {
					return nil, nil, nil, fmt.Errorf("journal repair: %w", err)
				}
			}
			if err := tf.Close(); err != nil {
				return nil, nil, nil, fmt.Errorf("journal repair: %w", err)
			}
			if err := os.Rename(repair, path); err != nil {
				return nil, nil, nil, fmt.Errorf("journal repair: %w", err)
			}
		}
	case !os.IsNotExist(err):
		return nil, nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	return primed, f, func() { f.Close() }, nil
}

// openJournal is openJournalFile with this command's exit contract: any
// journal problem is a usage/IO error.
func openJournal(path string) (primed []sim.CellRecord, w io.Writer, closeFn func()) {
	primed, w, closeFn, err := openJournalFile(path)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	return primed, w, closeFn
}

// serveConfig carries -serve's flag surface.
type serveConfig struct {
	addr       string        // listen address
	run        string        // default run's name ("" = "default")
	journal    string        // default run's journal path
	journalDir string        // per-run journals for remotely created runs
	token      string        // global bearer token for every route ("" = open)
	tlsCert    string        // serve HTTPS with this certificate...
	tlsKey     string        // ...and key
	leaseTTL   time.Duration // worker lease TTL of every hosted run
	spawnN     int
	bin, dir   string
	grid       gridFlags
	wait       time.Duration
	redispatch int
	csv        bool
	cache      sim.CellCache
	cacheSpec  string
}

// runName resolves the default run's name (the -run flag defaults to
// empty so client modes can distinguish "unset" = /v1 compatibility).
func (cfg serveConfig) runName() string {
	if cfg.run == "" {
		return "default"
	}
	return cfg.run
}

// workerNetArgs renders the network flags every spawned worker needs to
// reach this coordinator: the sink URL, the shared cache, and — when the
// surface is protected or TLS — the credential and trust flags.
func (cfg serveConfig) workerNetArgs(sinkURL string) []string {
	args := append([]string{"-sink", sinkURL}, cacheArgs(cfg.cacheSpec)...)
	if cfg.token != "" {
		args = append(args, "-token", cfg.token)
	}
	if cfg.tlsCert != "" {
		// Spawned workers trust exactly the certificate we serve: the
		// self-signed single-host deployment needs no separate CA.
		args = append(args, "-tls-ca", cfg.tlsCert)
	}
	return args
}

// runServe is the -serve mode: host the default run (and any remotely
// created ones) until every hosted run completes (exit 0), the -wait
// budget elapses, a signal arrives, or spawned workers finish with cells
// still pending after all re-dispatch rounds (exit 1).
func runServe(cfg serveConfig, jobs []sim.SweepJob) int {
	var journalW io.Writer
	var primed []sim.CellRecord
	if cfg.journal != "" {
		var closeJournal func()
		primed, journalW, closeJournal = openJournal(cfg.journal)
		defer closeJournal()
	}
	ing := sim.NewIngest(jobs, sim.WithJournal(journalW))
	if len(primed) > 0 {
		n, err := ing.Prime(primed)
		if err != nil {
			log.Print(err)
			return exitUsage
		}
		log.Printf("journal %s: resumed %d records covering %d cells", cfg.journal, len(primed), n)
	}
	primeFromCache(ing, cfg.cache)

	fleetOpts := []sim.FleetOption{sim.WithFleetAuth(cfg.token), sim.WithFleetLeaseTTL(cfg.leaseTTL)}
	if cfg.journalDir != "" {
		if err := os.MkdirAll(cfg.journalDir, 0o755); err != nil {
			log.Print(err)
			return exitUsage
		}
		fleetOpts = append(fleetOpts, sim.WithJournalOpener(func(run string) ([]sim.CellRecord, io.Writer, error) {
			// One JSONL journal per run; the file handle lives for the
			// process (the run does too).
			primed, w, _, err := openJournalFile(filepath.Join(cfg.journalDir, run+".jsonl"))
			return primed, w, err
		}))
	}
	fleet := sim.NewFleet(fleetOpts...)
	if err := fleet.AddRun(cfg.runName(), ing); err != nil {
		log.Print(err)
		return exitUsage
	}

	// Load the key pair before listening: a bad -tls-cert/-tls-key fails
	// here like a failed bind instead of after the listening banner.
	scheme := "http"
	srv := &http.Server{Handler: fleet, ReadHeaderTimeout: readHeaderTimeout}
	if cfg.tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(cfg.tlsCert, cfg.tlsKey)
		if err != nil {
			log.Print(err)
			return exitUsage
		}
		scheme = "https"
		srv.TLSConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Print(err)
		return exitUsage
	}
	serveErr := make(chan error, 1)
	go func() {
		if srv.TLSConfig != nil {
			serveErr <- srv.ServeTLS(ln, "", "")
		} else {
			serveErr <- srv.Serve(ln)
		}
	}()
	defer srv.Close()
	log.Printf("ingest listening on %s://%s (default run %q: POST /v1/cells, GET /v1/pending, GET /v1/status, POST /v1/lease; multi-run: GET/PUT /v2/runs)",
		scheme, ln.Addr(), cfg.runName())
	sinkURL := scheme + "://" + ln.Addr().String()

	// With -spawn, launch the workers against our own ingest endpoint and
	// re-dispatch the pending set when they die mid-grid. A journal that
	// already covers the grid means there is nothing to run: spawning
	// would orphan workers re-simulating whole shards only to POST to a
	// coordinator that exited the moment the select loop saw Done.
	spawnN := cfg.spawnN
	var workersDone chan struct{}
	if spawnN > 0 && ing.Status().Complete {
		log.Printf("journal and cache already cover the grid; not spawning workers")
		spawnN = 0
	}
	if spawnN > 0 {
		workersDone = make(chan struct{})
		go func() {
			defer close(workersDone)
			spawnWorkers(spawnN, cfg.bin, cfg.dir, cfg.grid, cfg.workerNetArgs(sinkURL), false)
			for round := 1; round <= cfg.redispatch; round++ {
				pending := ing.Pending()
				if len(pending) == 0 {
					return
				}
				log.Printf("re-dispatch round %d/%d: %d pending cells", round, cfg.redispatch, len(pending))
				pf := writePendingFile(pending)
				spawnWorkers(1, cfg.bin, "", cfg.grid, append(cfg.workerNetArgs(sinkURL), "-only", pf), false)
				os.Remove(pf)
			}
		}()
	}

	// The lease supervisor: reclaim expired leases everywhere, and
	// re-dispatch the default run's reclaimed cells to a local worker —
	// the stalled-worker analogue of the dead-worker re-dispatch above.
	go superviseLeases(fleet, cfg, sinkURL)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if cfg.wait > 0 {
		timeout = time.After(cfg.wait)
	}
	progress := time.NewTicker(10 * time.Second)
	defer progress.Stop()

	finish := func() int {
		// Keep answering until every claim worker heard from within the
		// lease TTL has been told the runs are complete (complete: true
		// on a lease answer or a post ack), or one lease poll has passed:
		// a worker asleep on an answer with no cells claims again within
		// one poll, and would find the port closed and exit 1. The
		// second of slack covers its wake-up and round trip.
		linger := time.Now().Add(sim.LeasePoll(cfg.leaseTTL.Seconds()) + time.Second)
		for fleet.AwaitingComplete() > 0 && time.Now().Before(linger) {
			time.Sleep(20 * time.Millisecond)
		}
		// Drain gracefully before reporting: the POST that completed the
		// last grid may still be writing its acknowledgement, and tearing
		// the listener down under it would make the finishing worker see a
		// spurious connection error and retry against a dead port.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(shutdownCtx)
		cancel()
		if runs := fleet.Statuses(); len(runs) > 1 {
			report.FleetStatus(os.Stderr, runs)
		}
		return finishMerge("grid complete", ing, jobs, cfg.csv, cfg.cache)
	}
	diagnose := func() {
		report.SweepStatus(os.Stderr, ing.Status(), ing.Pending())
		if runs := fleet.Statuses(); len(runs) > 1 {
			report.FleetStatus(os.Stderr, runs)
		}
	}

	doneCh := ing.Done()
	var fleetPoll *time.Ticker
	var fleetPollC <-chan time.Time
	defer func() {
		if fleetPoll != nil {
			fleetPoll.Stop()
		}
	}()
	for {
		select {
		case <-doneCh:
			if fleet.AllComplete() {
				return finish()
			}
			// The default run is done but other hosted runs are still being
			// fed; poll for fleet-wide completion (runs complete via worker
			// POSTs, so there is no single channel to select on).
			doneCh = nil
			log.Printf("default run %q complete; waiting for the other hosted runs", cfg.runName())
			fleetPoll = time.NewTicker(500 * time.Millisecond)
			fleetPollC = fleetPoll.C
		case <-fleetPollC:
			if fleet.AllComplete() {
				return finish()
			}
		case <-workersDone:
			// Both channels may be ready; prefer the completion path.
			if ing.Status().Complete {
				workersDone = nil
				continue
			}
			log.Printf("spawned workers exited with the grid incomplete")
			diagnose()
			return exitIncomplete
		case err := <-serveErr:
			if !errors.Is(err, http.ErrServerClosed) {
				log.Printf("serve: %v", err)
				diagnose()
				return exitUsage
			}
		case <-timeout:
			log.Printf("-wait %v elapsed with the grid incomplete", cfg.wait)
			diagnose()
			return exitIncomplete
		case s := <-sigCh:
			log.Printf("received %v with the grid incomplete; journal preserved for -resume", s)
			diagnose()
			return exitIncomplete
		case <-progress.C:
			st := ing.Status()
			log.Printf("progress: %d/%d cells received (%d pending)", st.Received, st.Total, st.Pending)
			// Liveness: a worker whose age keeps growing while cells are
			// pending is stalled, even though its connection never died.
			for _, r := range st.Remotes {
				held := ""
				if r.Leased > 0 {
					held = fmt.Sprintf(", holds %d leases", r.Leased)
				}
				log.Printf("  worker %s: %d records, last ingest %.0fs ago%s", r.Remote, r.Records, r.LastIngestAgeSeconds, held)
			}
			if runs := fleet.Statuses(); len(runs) > 1 {
				report.FleetStatus(os.Stderr, runs)
			}
		}
	}
}

// superviseLeases runs the claim → heartbeat → expire loop's last leg:
// periodically reclaim every expired lease across the fleet (the cells
// return to the claimable pool immediately), and re-dispatch the default
// run's reclaimed cells to a locally spawned -only worker — the
// coordinator knows that run's grid flags, so a stalled worker cannot
// hold the grid open even when no healthy claiming worker remains. Other
// runs were created from cell IDs alone, so their reclaimed cells wait
// for their own workers' next claim poll instead. Re-dispatch rounds are
// budgeted by -redispatch, mirroring the dead-worker path.
func superviseLeases(fleet *sim.Fleet, cfg serveConfig, sinkURL string) {
	tick := cfg.leaseTTL / 4
	if tick <= 0 {
		tick = sim.DefaultLeaseTTL / 4
	}
	if tick < 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick > 10*time.Second {
		tick = 10 * time.Second
	}
	budget := cfg.redispatch
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for range ticker.C {
		expired := fleet.ExpireAll()
		if len(expired) == 0 {
			continue
		}
		for run, byWorker := range expired {
			for worker, ids := range byWorker {
				log.Printf("lease supervisor: run %s: reclaimed %d cells from stalled worker %s", run, len(ids), worker)
			}
		}
		byWorker, ok := expired[cfg.runName()]
		if !ok || budget <= 0 {
			continue
		}
		var ids []string
		for _, cells := range byWorker {
			ids = append(ids, cells...)
		}
		budget--
		log.Printf("lease supervisor: re-dispatching %d reclaimed cells to a local worker (%d rounds left)", len(ids), budget)
		pf := writePendingFile(ids)
		// Synchronous: one re-dispatch worker at a time, and its posts win
		// or dedup against whatever the stalled worker eventually sends.
		spawnWorkers(1, cfg.bin, "", cfg.grid, append(cfg.workerNetArgs(sinkURL), "-only", pf), false)
		os.Remove(pf)
	}
}

// finishMerge merges the coordinator's records, writes fresh cells back to
// the cache and renders the report; what names the mode in the log line.
func finishMerge(what string, ing *sim.Ingest, jobs []sim.SweepJob, csv bool, cache sim.CellCache) int {
	cells, stats, err := sim.MergeCells(jobs, ing.Records())
	if err != nil {
		printMergeDiagnostics(stats)
		log.Print(err)
		return exitIncomplete
	}
	log.Printf("%s: %d cells merged and validated (%d duplicates deduplicated)",
		what, len(cells), stats.Duplicates)
	writeBackCache(cache, cells)
	return render(cells, csv)
}

// primeFromCache serves every still-pending cell the cache already holds
// straight into the ingest state — journaled like any received record (so
// a later -resume replays them from the journal without even needing the
// cache) and marked Cached for the hit accounting in status lines and
// tables. Runs before any worker is spawned, so a fully cached grid
// spawns nothing at all.
func primeFromCache(ing *sim.Ingest, cache sim.CellCache) {
	if cache == nil {
		return
	}
	if hits := serveFromCache(cache, ing.Pending(), ing.Add); hits > 0 {
		log.Printf("cache: primed %d pending cells from cache", hits)
	}
}

// runResume is the -resume mode: prime the pending set from the journal,
// re-dispatch only the missing cells to local workers (appending their
// records back to the journal, so repeated resumes converge), then merge
// and report.
func runResume(journalPath string, jobs []sim.SweepJob, spawnN int, bin, dir string, grid gridFlags, csv bool, cache sim.CellCache, cacheSpec string) int {
	primed, journalW, closeJournal := openJournal(journalPath)
	defer closeJournal()
	ing := sim.NewIngest(jobs, sim.WithJournal(journalW))
	if _, err := ing.Prime(primed); err != nil {
		log.Print(err)
		return exitUsage
	}
	st := ing.Status()
	log.Printf("journal %s: %d records cover %d/%d cells", journalPath, len(primed), st.Received, st.Total)
	primeFromCache(ing, cache)

	if pending := ing.Pending(); len(pending) > 0 {
		if spawnN <= 0 {
			spawnN = 1
		}
		log.Printf("re-dispatching %d pending cells to %d workers", len(pending), spawnN)
		pf := writePendingFile(pending)
		defer os.Remove(pf)
		files := spawnWorkers(spawnN, bin, dir, grid, append([]string{"-only", pf}, cacheArgs(cacheSpec)...), true)
		for _, rec := range readRecordFiles(files, true) {
			if err := ing.Add(rec); err != nil {
				die(exitUsage, "journal append: %v", err)
			}
		}
	}
	return finishMerge("resume complete", ing, jobs, csv, cache)
}

// runRegister is the -register mode: create (or idempotently re-assert)
// the named run on a remote fleet coordinator from this grid's canonical
// cell IDs — PUT /v2/runs/{run}. The coordinator needs only the IDs, not
// the trace files: they are pure functions of the grid, so workers
// enumerating the same grid flags will stream exactly these cells.
func runRegister(client *http.Client, base string, jobs []sim.SweepJob, run, runToken, token string) int {
	name := run
	if name == "" {
		name = "default"
	}
	rs, created, err := sim.RegisterRun(client, base, name, token, sim.RunSpec{Cells: sim.CellIDs(jobs), Token: runToken})
	if err != nil {
		log.Print(err)
		return exitUsage
	}
	verb := "already registered"
	if created {
		verb = "registered"
	}
	log.Printf("run %s %s on %s: %d cells (%d already covered)", name, verb, base, rs.Status.Total, rs.Status.Received)
	return exitComplete
}
