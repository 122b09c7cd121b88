package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The fleet-claim grid: every hour of a generated raw trace is one trace
// axis point, under two configs, rescaled to a peak a single small
// machine serves. Cells are tiny, so the coordinator — HTTP, JSON,
// Ingest.Add, leases — bounds the run; at paper scale even hour-long cells
// spend a third of their CPU rebuilding the rig, which the small fleet
// keeps out.
const (
	fleetDays    = 17
	fleetPeak    = 200 // req/s at each slice's peak
	fleetConfigs = "default,name=h13:headroom=1.3"
	claimMax     = 4 // cells per lease request, as CI's sweep-e2e job runs bmlsim -claim 4
)

// fleetClaim serves a sim.Fleet on loopback with the default run
// journaling to a file, and drives it with closed-loop claim workers, each
// running the loop bmlsim -sweep -claim runs: ClaimCells, then SweepStream
// over the claimed cells, posting each through an HTTPSink.
func fleetClaim(e *env) (*outcome, error) {
	o := newOutcome()
	var jobs []sim.SweepJob
	var simsec int
	var err error
	o.setups, err = setup(func() error {
		jobs, simsec, err = fleetGrid(e.seed)
		if err != nil {
			return err
		}
		c, err := startCoordinator(jobs, filepath.Join(e.work, "setup.jsonl"), nil)
		if err != nil {
			return err
		}
		return c.stop()
	})
	if err != nil {
		return nil, err
	}

	var posts []float64 // ms, every pass pooled
	var ref map[string]sim.CellRecord
	ps, err := passes(e, func(i int) (sample, error) {
		c, err := startCoordinator(jobs, filepath.Join(e.work, fmt.Sprintf("pass%d.jsonl", i)), nil)
		if err != nil {
			return sample{}, err
		}
		var ld *load
		s, err := measure(func() (time.Duration, error) {
			var err error
			if ld, err = c.drive(e.workers, jobs, nil); err != nil {
				return 0, err
			}
			return ld.wall, nil
		})
		if serr := c.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return s, err
		}
		posts = append(posts, ld.posts...)
		if ref == nil {
			ref = byID(c.ing.Records())
		}
		checkFleetPass(o, c, jobs, ld, ref)
		return s, os.Remove(c.journalPath)
	})
	if err != nil {
		return nil, err
	}
	o.recordPasses(e.log, ps, float64(len(jobs)), float64(simsec))
	p50, _ := percentile(posts, 50)
	p90, ok90 := percentile(posts, 90)
	p99, ok99 := percentile(posts, 99)
	if !ok90 || !ok99 {
		return nil, fmt.Errorf("%d post samples are too few for p99", len(posts))
	}
	fmt.Fprintf(e.log, "fleet-claim: one pass completes %d cells\n", len(jobs))
	fmt.Fprintf(e.log, "post_p50_ms %.6g ms, post_p90_ms %.6g ms, sink.post_ms_p99 %.6g ms (n=%d Emit→ack samples)\n",
		p50, p90, p99, len(posts))

	if e.traced {
		o.layers["post_p50_ms"] = p50
		o.layers["post_p90_ms"] = p90
		o.layers["sink.post_ms_p99"] = p99
		o.layers["post_samples"] = float64(len(posts))
		if err := fleetTraced(o, e, jobs, ref, median(ps.walls)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fleetGrid generates the trace from seed, cuts it into hour-long trace
// axis points and enumerates the grid. It returns the grid and the
// simulated seconds one pass covers.
func fleetGrid(seed int64) ([]sim.SweepJob, int, error) {
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = fleetDays
	cfg.Seed = seed
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		return nil, 0, err
	}
	var axes []sim.TraceAxis
	for h := 0; h*3600 < tr.Len(); h++ {
		s, err := tr.Slice(h*3600, (h+1)*3600)
		if err != nil {
			return nil, 0, err
		}
		// Each slice's peak sizes its cells' tables and exact solvers;
		// giving every slice the same peak keeps the work per cell, and
		// so per seed, the same.
		if s, err = s.Scale(fleetPeak / s.Max()); err != nil {
			return nil, 0, err
		}
		axes = append(axes, sim.TraceAxis{Name: fmt.Sprintf("h%04d", h), Trace: s})
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return nil, 0, err
	}
	configs, err := sim.ParseConfigs(fleetConfigs)
	if err != nil {
		return nil, 0, err
	}
	jobs, err := sim.Grid(axes, planner, configs, nil)
	if err != nil {
		return nil, 0, err
	}
	return jobs, len(jobs) * 3600, nil
}

// coordinator is one bmlsweep -serve equivalent on a loopback port.
type coordinator struct {
	fleet       *sim.Fleet
	ing         *sim.Ingest
	journal     *os.File
	journalPath string
	base        string
	srv         *http.Server
	served      chan error
}

// startCoordinator serves a fresh fleet whose default run journals to
// path. wrap, when non-nil, wraps the fleet's handler (the traced run
// spans each request).
func startCoordinator(jobs []sim.SweepJob, path string, wrap func(http.Handler) http.Handler) (*coordinator, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	c := &coordinator{journal: f, journalPath: path, served: make(chan error, 1)}
	// The journal is the real file, but hidden behind a plain io.Writer so
	// Ingest does not fsync it per acknowledgement: on a shared host the
	// fsync latency swung pass walls by ±25% from run to run, swamping
	// the coordinator's own cost. journal.sync_us in the traced run
	// measures the sync separately.
	c.ing = sim.NewIngest(jobs, sim.WithJournal(struct{ io.Writer }{f}))
	c.fleet = sim.NewFleet()
	if err := c.fleet.AddRun("default", c.ing); err != nil {
		f.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	var h http.Handler = c.fleet
	if wrap != nil {
		h = wrap(h)
	}
	c.base = "http://" + ln.Addr().String()
	c.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { c.served <- c.srv.Serve(ln) }()
	return c, nil
}

// stop shuts the server down, waits for it to exit and closes the journal.
func (c *coordinator) stop() error {
	err := c.srv.Shutdown(context.Background())
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := c.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// load is what one pass of claim workers saw.
type load struct {
	wall       time.Duration // first claim to the run's completion
	requests   atomic.Int64
	failedReqs atomic.Int64

	mu            sync.Mutex // guards the fields below
	posts         []float64  // Emit→ack per cell, ms
	claimMS       []float64
	claims        int
	granted       int
	cells         int // cells the workers simulated
	failedCells   int
	workerFailure error
}

// countingTransport counts the requests a worker makes and the ones that
// got no 2xx answer.
type countingTransport struct {
	inner http.RoundTripper
	ld    *load
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.ld.requests.Add(1)
	resp, err := c.inner.RoundTrip(r)
	if err != nil || resp.StatusCode/100 != 2 {
		c.ld.failedReqs.Add(1)
	}
	return resp, err
}

// drive runs n claim workers against the coordinator until its default
// run is complete, then waits for them to exit. With t non-nil each
// worker's claims, sweeps and posts are spans.
func (c *coordinator) drive(n int, jobs []sim.SweepJob, t *tracer) (*load, error) {
	ld := &load{}
	byJob := make(map[string]sim.SweepJob, len(jobs))
	for _, j := range jobs {
		byJob[sim.CellID(j)] = j
	}
	var wg sync.WaitGroup
	workers := make([]claimWorker, n)
	for w := range workers {
		id := fmt.Sprintf("bench-w%d", w)
		client := &http.Client{
			Timeout:   30 * time.Second,
			Transport: countingTransport{inner: &http.Transport{MaxIdleConnsPerHost: 1}, ld: ld},
		}
		sink, err := sim.NewHTTPSink(c.base, sim.WithSinkClient(client), sim.WithSinkWorker(id))
		if err != nil {
			return nil, err
		}
		workers[w] = claimWorker{id, client, sink}
	}
	root := t.begin(0, "fleet.pass")
	t0 := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.client.CloseIdleConnections()
			if err := w.loop(c, byJob, ld, t, root); err != nil {
				ld.mu.Lock()
				ld.workerFailure = errors.Join(ld.workerFailure, err)
				ld.mu.Unlock()
			}
		}()
	}
	select {
	case <-c.ing.Done():
	case <-waitGroupDone(&wg): // every worker failed
	}
	ld.wall = time.Since(t0)
	wg.Wait()
	t.end(root)
	return ld, ld.workerFailure
}

func waitGroupDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// claimWorker is one load generator with its own connection.
type claimWorker struct {
	id     string
	client *http.Client
	sink   *sim.HTTPSink
}

// loop is one closed-loop worker: claim, simulate the claimed cells, post
// each as it completes, repeat until the run is complete. Like bmlsim's
// claim loop it skips cells it already failed and polls when every
// pending cell is leased to another worker.
func (w claimWorker) loop(c *coordinator, byJob map[string]sim.SweepJob, ld *load, t *tracer, parent int) error {
	wid := t.begin(parent, "fleet.worker")
	defer t.end(wid)
	attempted := map[string]bool{}
	for {
		var lr sim.LeaseResponse
		c0 := time.Now()
		err := t.do(wid, "fleet.claim", func() (err error) {
			lr, err = sim.ClaimCells(w.client, c.base, "default", "", w.id, claimMax)
			return err
		})
		claimMS := float64(time.Since(c0)) / float64(time.Millisecond)
		if err != nil {
			return err
		}
		ld.mu.Lock()
		ld.claims++
		ld.granted += len(lr.Cells)
		ld.claimMS = append(ld.claimMS, claimMS)
		ld.mu.Unlock()
		if len(lr.Cells) == 0 {
			if lr.Complete {
				return nil
			}
			select {
			case <-c.ing.Done():
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		var batch []sim.SweepJob
		for _, id := range lr.Cells {
			j, ok := byJob[id]
			if !ok {
				return fmt.Errorf("claimed cell %q is not in the grid", id)
			}
			if !attempted[id] {
				batch = append(batch, j)
			}
		}
		if len(batch) == 0 {
			return fmt.Errorf("coordinator keeps offering %d cells %s already failed", len(lr.Cells), w.id)
		}
		sw := t.begin(wid, "stream.sweep")
		err = sim.SweepStream(batch, 1, func(r sim.SweepResult) error {
			rec := sim.NewCellRecord(r)
			p0 := time.Now()
			err := t.do(sw, "sink.post", func() error { return w.sink.Emit(rec) })
			postMS := float64(time.Since(p0)) / float64(time.Millisecond)
			ld.mu.Lock()
			defer ld.mu.Unlock()
			ld.cells++
			ld.posts = append(ld.posts, postMS)
			if r.Err != nil {
				ld.failedCells++
				attempted[rec.ID] = true
			}
			return err
		})
		t.end(sw)
		if err != nil {
			return err
		}
	}
}

func byID(recs []sim.CellRecord) map[string]sim.CellRecord {
	m := make(map[string]sim.CellRecord, len(recs))
	for _, r := range recs {
		m[r.ID] = r
	}
	return m
}

// checkFleetPass checks one pass: the fleet is complete, the journal read
// back holds exactly the records the ingest holds, the merge is complete
// with no foreign cells, and every cell's result equals the first pass's.
func checkFleetPass(o *outcome, c *coordinator, jobs []sim.SweepJob, ld *load, ref map[string]sim.CellRecord) {
	o.tally.cells += ld.cells
	o.tally.httpCalls += int(ld.requests.Load())
	o.tally.failedHTTP += int(ld.failedReqs.Load())
	o.tally.failedCells += ld.failedCells
	if !c.fleet.AllComplete() {
		o.failCheck(0, "fleet-claim: fleet not complete")
	}
	recs := c.ing.Records()
	raw, err := os.ReadFile(c.journalPath)
	if err != nil {
		o.failCheck(len(jobs), "fleet-claim: %v", err)
		return
	}
	journal, truncated, err := sim.ReadJournal(bytes.NewReader(raw))
	if err != nil || truncated {
		o.failCheck(len(jobs), "fleet-claim: journal unreadable (truncated %v): %v", truncated, err)
		return
	}
	if !sameRecords(journal, recs) {
		o.failCheck(len(jobs), "fleet-claim: journal records differ from Ingest.Records()")
	}
	_, ms, err := sim.MergeCells(jobs, recs)
	if err != nil || !ms.Complete() || len(ms.Unknown) != 0 {
		o.failCheck(len(ms.Missing)+len(ms.Failed)+len(ms.Unknown), "fleet-claim: merge incomplete: %v", err)
	}
	for _, r := range recs {
		want, ok := ref[r.ID]
		if !ok || want.TotalJ != r.TotalJ || want.Decisions != r.Decisions || want.SwitchOns != r.SwitchOns {
			o.failCheck(1, "fleet-claim: cell %s differs from the first pass", r.ID)
		}
	}
}

// sameRecords compares two record sets by ID, ignoring order.
func sameRecords(a, b []sim.CellRecord) bool {
	if len(a) != len(b) {
		return false
	}
	mb := byID(b)
	for _, r := range a {
		other, ok := mb[r.ID]
		if !ok {
			return false
		}
		x, err1 := json.Marshal(r)
		y, err2 := json.Marshal(other)
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}

// fleetTraced is the traced run: one pass with each worker's claims,
// sweeps and posts and each request the coordinator serves in spans, then
// standalone calls of what the coordinator and the cells do inside —
// Ingest.Add with and without a file journal (and the journal sync the
// HTTP handler adds per acknowledged batch), record encode/decode and
// merge, and the per-cell rig and exact-solver set-up.
func fleetTraced(o *outcome, e *env, jobs []sim.SweepJob, ref map[string]sim.CellRecord, untracedWall float64) error {
	var ld *load
	var st sim.IngestStatus
	var recs []sim.CellRecord
	var probes probeTotals
	err := o.traceSection(func(t *tracer) error {
		wrap := func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				id := t.begin(0, "ingest.http")
				defer t.end(id)
				h.ServeHTTP(w, r)
			})
		}
		c, err := startCoordinator(jobs, filepath.Join(e.work, "traced.jsonl"), wrap)
		if err != nil {
			return err
		}
		ld, err = c.drive(e.workers, jobs, t)
		if serr := c.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		checkFleetPass(o, c, jobs, ld, ref)
		st = c.ing.Status()
		recs = c.ing.Records()

		root := t.begin(0, "probes")
		defer t.end(root)
		if err := ingestProbes(t, root, e, jobs, recs); err != nil {
			return err
		}
		if err := streamProbes(t, root, jobs, recs); err != nil {
			return err
		}
		probes.addRecords(recs)
		planner, err := bml.NewPlanner(profile.PaperMachines())
		if err != nil {
			return err
		}
		window, err := sched.Window(planner.Candidates(), sched.DefaultWindowFactor)
		if err != nil {
			return err
		}
		return cellProbes(t, root, jobs, planner, window, map[string]bool{})
	})
	if err != nil {
		return err
	}
	sp := statsByName(o.spans)
	o.layerTimes(sp)
	probes.cellLayers(o)
	o.layers["ingest.add_us"] = median(sp["ingest.add"].durs) * 1e6
	o.layers["ingest.add_nojournal_us"] = median(sp["ingest.add_nojournal"].durs) * 1e6
	o.layers["journal.sync_us"] = median(sp["journal.sync"].durs) * 1e6
	o.layers["stream.encode_us"] = sp["stream.encode"].total.Seconds() * 1e6 / float64(len(recs))
	o.layers["stream.decode_us"] = sp["stream.decode"].total.Seconds() * 1e6 / float64(len(recs))
	o.layers["stream.merge_s"] = sp["stream.merge"].total.Seconds()
	o.layers["ingest.dups"] = float64(st.Duplicates)
	o.layers["ingest.unknown"] = float64(st.Unknown)
	o.layers["ingest.failed"] = float64(st.Failed)
	o.layers["fleet.claims"] = float64(ld.claims)
	o.layers["fleet.claim_yield"] = float64(ld.granted) / float64(ld.claims)
	o.layers["fleet.claim_ms_p50"] = median(ld.claimMS)
	o.layers["tracing.overhead_s"] = ld.wall.Seconds() - untracedWall
	return nil
}

// ingestProbes feeds the pass's records, in arrival order of the grid,
// into fresh coordinators: one journaling to a file, synced after each
// record as the HTTP handler syncs after each acknowledged batch, and one
// without a journal.
func ingestProbes(t *tracer, root int, e *env, jobs []sim.SweepJob, recs []sim.CellRecord) error {
	f, err := os.Create(filepath.Join(e.work, "probe.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	withJournal := sim.NewIngest(jobs, sim.WithJournal(f))
	plain := sim.NewIngest(jobs)
	for _, r := range recs {
		if err := t.do(root, "ingest.add", func() error { return withJournal.Add(r) }); err != nil {
			return err
		}
		if err := t.do(root, "journal.sync", f.Sync); err != nil {
			return err
		}
		if err := t.do(root, "ingest.add_nojournal", func() error { return plain.Add(r) }); err != nil {
			return err
		}
	}
	return f.Close()
}

// streamProbes times record encoding, decoding and the merge over the
// pass's records.
func streamProbes(t *tracer, root int, jobs []sim.SweepJob, recs []sim.CellRecord) error {
	var buf bytes.Buffer
	if err := t.do(root, "stream.encode", func() error {
		for _, r := range recs {
			if err := sim.WriteCellRecord(&buf, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := t.do(root, "stream.decode", func() error {
		_, err := sim.ReadCellRecords(&buf)
		return err
	}); err != nil {
		return err
	}
	return t.do(root, "stream.merge", func() error {
		_, _, err := sim.MergeCells(jobs, recs)
		return err
	})
}
