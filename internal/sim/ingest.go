package sim

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// This file is the coordinator half of networked sweeps: Ingest tracks
// one run's expected grid against the cell records workers stream in,
// journals every state-changing record to an append-only JSONL file (the
// same schema as worker -out files, so the journal is itself a mergeable
// record set), and tracks the pending set — the canonical cell IDs of the
// expected grid that no successful record has covered yet. Because cell
// IDs are pure functions of the grid, resumable coordination is a set
// difference: re-read the journal, re-enumerate the grid, and re-dispatch
// only the missing cells.
//
// Ingest serves no HTTP itself. Fleet (fleet.go) is the one route table:
// it hosts many Ingests as named runs and serves each one's resources at
// /v2/runs/{run}/..., and the default run's also at /v1/...:
//
//	POST {run}/cells          JSONL CellRecords (same lines a -out file holds)
//	GET  {run}/cells?id=<id>  the journaled success for one canonical cell ID
//	                          (JSONL, 404 on miss) — the coordinator as a
//	                          content-addressed cache server (see HTTPCache)
//	GET  {run}/cells          every record: the best per covered cell
//	GET  {run}/pending        outstanding canonical cell IDs, one per line
//	GET  {run}[/status]       IngestStatus as JSON
//	POST {run}/lease          claim pending cells under a TTL lease
//
// Dedup is the cellSet rule MergeCells also applies: the first successful
// record for a cell wins (later re-runs with different wall times are
// counted as duplicates and dropped), and a successful record replaces a
// failed one. Leases do not weaken that invariant — a lease only steers
// which worker computes a cell next; whoever posts the first success wins,
// and a late post from a worker whose lease expired mid-compute is a
// counted duplicate.

// RemoteStatus is one worker's liveness entry in the status snapshot: how
// many records it has POSTed and how long ago its last ingest was. A
// worker whose age keeps growing while cells are pending is stalled — not
// dead, so no connection error ever fires — and this is how an operator
// (or a supervising script polling /v1/status) sees it. Leased counts the
// cells the worker currently holds under lease; the lease supervisor acts
// on exactly this combination (old age + held leases = stalled worker).
type RemoteStatus struct {
	Remote               string  `json:"remote"`
	Records              int     `json:"records"`
	LastIngestAgeSeconds float64 `json:"last_ingest_age_s"`
	Leased               int     `json:"leased,omitempty"`
}

// IngestStatus is the coordinator's progress snapshot (GET {run}/status).
type IngestStatus struct {
	Total      int  `json:"total"`            // cells in the expected grid
	Received   int  `json:"received"`         // cells with a successful record
	Pending    int  `json:"pending"`          // Total - Received
	Failed     int  `json:"failed"`           // cells whose only records carry errors (still pending)
	Duplicates int  `json:"duplicates"`       // records dropped by first-success-wins dedup
	Unknown    int  `json:"unknown"`          // records foreign to the expected grid
	Cached     int  `json:"cached,omitempty"` // accepted successes served from a result cache, not simulated
	Leased     int  `json:"leased,omitempty"` // pending cells currently held under an unexpired worker lease
	Complete   bool `json:"complete"`         // Pending == 0

	// Remotes lists every worker that has POSTed cells, sorted by name,
	// with its last-ingest age — the liveness view for spotting stalled
	// (not just dead) workers.
	Remotes []RemoteStatus `json:"remotes,omitempty"`
}

// IngestResponse acknowledges one POST {run}/cells batch.
type IngestResponse struct {
	Accepted     int    `json:"accepted"`   // records that changed coordinator state
	Duplicates   int    `json:"duplicates"` // records dropped as re-runs
	Unknown      int    `json:"unknown"`    // records foreign to the grid
	FirstUnknown string `json:"first_unknown,omitempty"`
	Pending      int    `json:"pending"` // cells still outstanding after this batch
	Complete     bool   `json:"complete"`
}

// DefaultLeaseTTL is the lease duration used when WithFleetLeaseTTL is
// not given: long enough that a healthy worker's per-cell posts (each one a
// heartbeat) always renew in time, short enough that a stalled worker's
// cells return to the pool within minutes.
const DefaultLeaseTTL = 2 * time.Minute

// cellLease records which worker holds a pending cell and until when.
type cellLease struct {
	worker string
	expiry time.Time
}

// Ingest tracks one expected grid against the records workers stream in.
// Safe for concurrent use. A Fleet serves it over HTTP and sets its lease
// TTL and clock; a standalone Ingest keeps DefaultLeaseTTL and time.Now.
type Ingest struct {
	mu      sync.Mutex
	cells   *cellSet // per-cell state and the dedup rule (incremental counts: POST accounting stays O(batch), not O(grid))
	cached  int      // accepted successes marked Cached (served from a result cache)
	journal io.Writer
	done    chan struct{}
	closed  bool
	remotes map[string]*remoteInfo
	// claimants holds every worker that has claimed cells, keyed like
	// remotes: its last claim or post and whether that response carried
	// complete: true (see awaitingComplete).
	claimants map[string]claimant
	leases    map[string]cellLease // pending cell ID → holder (released on success, reclaimed on expiry)
	leaseTTL  time.Duration
	token     string           // per-run bearer token (RunSpec.Token), accepted beside the fleet's
	now       func() time.Time // clock for liveness ages and lease expiry
}

// claimant is a claim worker's last contact with the run.
type claimant struct {
	last time.Time
	told bool // the response to the last contact carried complete: true
}

// remoteInfo is one worker's liveness accounting.
type remoteInfo struct {
	records int
	last    time.Time
}

// IngestOption configures a coordinator built by NewIngest.
type IngestOption func(*Ingest)

// WithJournal appends every state-changing record (first record for a
// cell, or a success replacing a failure) to w as one JSON line before it
// is acknowledged, so a coordinator killed mid-run can resume from the
// journal alone. When w also implements Sync() error (an *os.File), each
// acknowledged batch is synced first and Done only fires once the
// completing records are durable. Duplicates are acknowledged but not
// journaled — replaying a journal therefore reproduces the coordinator's
// state exactly.
func WithJournal(w io.Writer) IngestOption {
	return func(g *Ingest) { g.journal = w }
}

// NewIngest builds a coordinator for the expected grid. By default it
// journals nothing (see WithJournal).
func NewIngest(expected []SweepJob, opts ...IngestOption) *Ingest {
	return NewIngestIDs(CellIDs(expected), opts...)
}

// NewIngestIDs builds a coordinator from canonical cell IDs alone — how a
// Fleet creates a run for a remote client (PUT /v2/runs/{run} carries the
// IDs, which are pure functions of the grid, so the coordinator never
// needs the client's trace files to track pending cells).
func NewIngestIDs(ids []string, opts ...IngestOption) *Ingest {
	g := &Ingest{
		cells:     newCellSet(ids),
		done:      make(chan struct{}),
		remotes:   make(map[string]*remoteInfo),
		claimants: make(map[string]claimant),
		leases:    make(map[string]cellLease),
		leaseTTL:  DefaultLeaseTTL,
		now:       time.Now,
	}
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// Prime seeds records already persisted (a journal read back on resume)
// without re-journaling them, and returns how many cells the seed
// completed. Foreign and duplicate records in the seed are accounted the
// same way live ones are. A record written under a different cell schema
// (a v1 journal fed to a v2 coordinator) rejects the whole seed before
// anything is folded in — the journal belongs to a grid this build cannot
// re-enumerate.
func (g *Ingest) Prime(recs []CellRecord) (int, error) {
	if err := checkCellSchemas(recs); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	before := g.cells.received
	for _, rec := range recs {
		g.addLocked(rec, false)
	}
	g.checkCompleteLocked()
	return g.cells.received - before, nil
}

// addLocked folds one record into the cell set. When the record changes
// state and journal is set, it is journaled first; a journal write error
// is returned and the record is NOT folded in (the cellSet commit
// contract), so the client retries and no acknowledged record is ever
// missing from the journal.
//
// Ordering is load-bearing on the journal-failure path: a record whose
// journal write failed is invisible everywhere state is derived from the
// cell set — /v1/status reports it pending, /v1/pending still lists its
// cell for re-dispatch, and Done cannot fire on its account. The 5xx the
// caller sends makes the client retry the batch, and the retry
// journals-then-folds as if the failed attempt never happened.
func (g *Ingest) addLocked(rec CellRecord, journal bool) (cellVerdict, error) {
	var commit func() error
	if journal && g.journal != nil {
		commit = func() error { return WriteCellRecord(g.journal, rec) }
	}
	v, err := g.cells.add(rec, commit)
	if err == nil && (v == cellNew || v == cellReplaced) && rec.Err == "" {
		if rec.Cached {
			g.cached++
		}
		// The cell is covered: its lease (if any) has served its purpose,
		// whoever held it.
		delete(g.leases, rec.ID)
	}
	return v, err
}

func (g *Ingest) checkCompleteLocked() {
	if !g.closed && g.cells.complete() {
		g.closed = true
		close(g.done)
	}
}

// Add folds one record into the state exactly as a POSTed one — journaled
// when it changes state — for coordinators that receive records outside
// HTTP (e.g. bmlsweep -resume reading re-dispatched workers' files). The
// returned error is a schema mismatch or a journal write failure; the
// record is not folded in either way.
func (g *Ingest) Add(rec CellRecord) error {
	if err := CheckCellSchema(rec); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	_, err := g.addLocked(rec, true)
	if err == nil {
		g.checkCompleteLocked()
	}
	return err
}

// Done is closed once every expected cell has a successful record.
func (g *Ingest) Done() <-chan struct{} { return g.done }

// Pending returns the canonical IDs of expected cells that still lack a
// successful record, in grid order — exactly what a re-dispatched worker
// should run (bmlsim -sweep -only). Leased cells are included: a lease is
// a scheduling hint, not coverage.
func (g *Ingest) Pending() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cells.pending()
}

// Claim reserves up to max pending, unleased cells for worker under the
// coordinator's lease TTL and returns their canonical IDs in grid order —
// the server half of POST {run}/lease. Cells whose lease has
// expired are reclaimable immediately. A claim is also a heartbeat: all of
// the worker's existing leases are renewed, so a worker that claims in
// batches never loses an earlier batch mid-compute.
func (g *Ingest) Claim(worker string, max int) []string {
	if worker == "" || max <= 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	expiry := now.Add(g.leaseTTL)
	g.renewLocked(worker, expiry)
	var out []string
	for i, id := range g.cells.order {
		if len(out) >= max {
			break
		}
		if g.cells.covered(i) {
			continue
		}
		if l, ok := g.leases[id]; ok && l.worker != worker && l.expiry.After(now) {
			continue // someone else holds it
		}
		g.leases[id] = cellLease{worker: worker, expiry: expiry}
		out = append(out, id)
	}
	return out
}

// renewLocked extends every lease worker holds to the new expiry — the
// heartbeat path, driven by claims and by every cells POST carrying the
// worker's X-Bml-Worker identity.
func (g *Ingest) renewLocked(worker string, expiry time.Time) {
	for id, l := range g.leases {
		if l.worker == worker {
			l.expiry = expiry
			g.leases[id] = l
		}
	}
}

// awaitingComplete counts the claim workers whose last claim or post lies
// within the lease TTL and was not answered complete: true. Such a worker
// will claim again — at the latest one lease poll after an answer with
// no cells — so a coordinator that stopped listening would fail it.
func (g *Ingest) awaitingComplete() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	now, n := g.now(), 0
	for _, c := range g.claimants {
		if !c.told && now.Sub(c.last) < g.leaseTTL {
			n++
		}
	}
	return n
}

// LeasePoll is how long a claim worker waits before claiming again after
// an answer with no cells (every pending cell leased to another live
// worker): a quarter of the lease TTL, bounded away from both busy-polling
// and oversleeping expiry.
func LeasePoll(ttlSeconds float64) time.Duration {
	d := time.Duration(ttlSeconds / 4 * float64(time.Second))
	return min(max(d, 200*time.Millisecond), 5*time.Second)
}

// ExpireLeases releases every lease whose TTL has passed and returns the
// freed cell IDs grouped by the worker that went quiet — the supervisor's
// re-dispatch input. The cells return to the claimable pool atomically
// with this call; nothing else changes (they were pending all along).
func (g *Ingest) ExpireLeases() map[string][]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	var freed map[string][]string
	for id, l := range g.leases {
		if !l.expiry.After(now) {
			if freed == nil {
				freed = make(map[string][]string)
			}
			freed[l.worker] = append(freed[l.worker], id)
			delete(g.leases, id)
		}
	}
	for _, ids := range freed {
		sort.Strings(ids)
	}
	return freed
}

// Status returns the progress snapshot, including per-remote liveness
// (ages computed against the snapshot time) and lease counts.
func (g *Ingest) Status() IngestStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := IngestStatus{
		Total:      len(g.cells.order),
		Received:   g.cells.received,
		Failed:     g.cells.failed,
		Duplicates: g.cells.dups,
		Unknown:    g.cells.unknown,
		Cached:     g.cached,
	}
	st.Pending = st.Total - st.Received
	st.Complete = st.Pending == 0
	now := g.now()
	leasedBy := make(map[string]int)
	for _, l := range g.leases {
		if l.expiry.After(now) {
			st.Leased++
			leasedBy[l.worker]++
		}
	}
	if len(g.remotes) > 0 {
		st.Remotes = make([]RemoteStatus, 0, len(g.remotes))
		for name, info := range g.remotes {
			st.Remotes = append(st.Remotes, RemoteStatus{
				Remote:               name,
				Records:              info.records,
				LastIngestAgeSeconds: now.Sub(info.last).Seconds(),
				Leased:               leasedBy[name],
			})
		}
		sort.Slice(st.Remotes, func(i, j int) bool { return st.Remotes[i].Remote < st.Remotes[j].Remote })
	}
	return st
}

// Records returns the best record of every covered cell in grid order —
// the input MergeCells validates for the final report.
func (g *Ingest) Records() []CellRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cells.records()
}

// bearerMatch checks the Authorization header against one bearer token in
// constant time.
func bearerMatch(r *http.Request, token string) bool {
	return subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+token)) == 1
}

// deny401 rejects an unauthenticated or wrongly-authenticated request.
func deny401(w http.ResponseWriter) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="bmlsweep"`)
	http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
}

// handlePending writes the pending cell IDs, one per line.
func (g *Ingest) handlePending(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, id := range g.Pending() {
		fmt.Fprintln(w, id)
	}
}

// handleStatus writes the status snapshot as JSON.
func (g *Ingest) handleStatus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.Status())
}

// handleCellGet serves the coordinator's journaled success for one
// canonical cell ID — the server half of HTTPCache. Everything it can
// serve has already been journaled (records are journaled before they are
// acknowledged), so a hit is as durable as the coordinator's own resume
// state. Failures and uncovered cells are both 404: neither is a result a
// cache may replay. The Cached flag is stripped so the served record is
// the canonical result, however this coordinator obtained it.
func (g *Ingest) handleCellGet(w http.ResponseWriter, id string) {
	g.mu.Lock()
	rec, ok := g.cells.success(id)
	g.mu.Unlock()
	if !ok {
		http.Error(w, "no successful record for cell "+id, http.StatusNotFound)
		return
	}
	rec.Cached = false
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = WriteCellRecord(w, rec) // client disconnect mid-write; nothing to recover
}

// handleRecords streams every record the coordinator holds (best per
// covered cell, grid order) as JSONL — GET {run}/cells without ?id=, the
// remote-merge path for runs whose journal lives on the coordinator host.
func (g *Ingest) handleRecords(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, rec := range g.Records() {
		if WriteCellRecord(w, rec) != nil {
			return // client disconnect mid-stream; nothing to recover
		}
	}
}

// WorkerHeader identifies the posting worker for the per-remote liveness
// view and for lease heartbeats. HTTPSink sets it to host:pid (plus the
// shard or claim mode, when the worker knows one); posts without it are
// attributed to their source address. A lease-claiming worker MUST post
// under the same identity it claims with, or its posts will not renew its
// leases.
const WorkerHeader = "X-Bml-Worker"

// remoteLabel names the posting worker for liveness accounting.
func remoteLabel(r *http.Request) string {
	if w := r.Header.Get(WorkerHeader); w != "" {
		return w
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// handleCells folds one POSTed JSONL batch into the coordinator state.
func (g *Ingest) handleCells(w http.ResponseWriter, r *http.Request) {
	recs, err := ReadCellRecords(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad cell batch: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkCellSchemas(recs); err != nil {
		// 4xx: retrying cannot fix a schema mismatch, so the worker's sink
		// fails fast and the operator sees the real problem.
		http.Error(w, fmt.Sprintf("rejected batch: %v", err), http.StatusBadRequest)
		return
	}
	var resp IngestResponse
	g.mu.Lock()
	// Liveness: the worker proved itself alive by POSTing, whatever the
	// batch's fate below — and a live worker keeps its leases (the
	// heartbeat half of claim → heartbeat → expire).
	now := g.now()
	label := remoteLabel(r)
	info := g.remotes[label]
	if info == nil {
		info = &remoteInfo{}
		g.remotes[label] = info
	}
	info.records += len(recs)
	info.last = now
	g.renewLocked(label, now.Add(g.leaseTTL))
	var journalFailure error
	for _, rec := range recs {
		var v cellVerdict
		if v, journalFailure = g.addLocked(rec, true); journalFailure != nil {
			break
		}
		switch v {
		case cellNew, cellReplaced:
			resp.Accepted++
		case cellDuplicate:
			resp.Duplicates++
		case cellUnknown:
			resp.Unknown++
			if resp.FirstUnknown == "" {
				resp.FirstUnknown = rec.ID
			}
		}
	}
	if journalFailure == nil {
		// Sync unconditionally, not just when this batch accepted records:
		// a retried batch whose first attempt folded records but failed to
		// sync dedups to Accepted == 0, and must still not be acknowledged
		// until a sync succeeds — otherwise "journaled before acknowledged"
		// quietly degrades to "buffered in the page cache".
		if f, ok := g.journal.(interface{ Sync() error }); ok {
			journalFailure = f.Sync()
		}
	}
	if journalFailure == nil {
		// Done (and therefore coordinator exit) only fires once the
		// completing records are durable.
		g.checkCompleteLocked()
	}
	resp.Pending = len(g.cells.order) - g.cells.received
	resp.Complete = resp.Pending == 0
	if _, ok := g.claimants[label]; ok {
		g.claimants[label] = claimant{last: now, told: resp.Complete && journalFailure == nil}
	}
	g.mu.Unlock()
	if journalFailure != nil {
		// 5xx: the client retries the whole batch; already-folded records
		// of this batch will dedup.
		http.Error(w, fmt.Sprintf("journal write failed: %v", journalFailure), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// LeaseRequest is the body of POST {run}/lease: which worker is
// claiming and how many cells it wants at most.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// LeaseResponse answers a claim: the cell IDs now leased to the worker (in
// grid order, possibly empty when everything pending is leased elsewhere),
// the lease TTL the worker must heartbeat within, and the run's progress
// so a polling worker knows when to stop.
type LeaseResponse struct {
	Cells      []string `json:"cells"`
	TTLSeconds float64  `json:"ttl_s"`
	Pending    int      `json:"pending"`
	Complete   bool     `json:"complete"`
}

// strictJSON decodes rd into v as exactly one JSON object: a field v does
// not declare, or any data after the object, is an error, so a misspelt
// key never passes as absent.
func strictJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// handleLease serves one claim (POST {run}/lease).
func (g *Ingest) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `POST {"worker":"...","max":N} to claim pending cells under a lease`, http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if err := strictJSON(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		http.Error(w, fmt.Sprintf("bad lease request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Worker == "" {
		http.Error(w, `lease request needs a non-empty "worker" identity (it must match the X-Bml-Worker header the worker posts cells with)`, http.StatusBadRequest)
		return
	}
	if req.Max <= 0 {
		http.Error(w, `lease request needs "max" > 0`, http.StatusBadRequest)
		return
	}
	resp := LeaseResponse{
		Cells:      g.Claim(req.Worker, req.Max),
		TTLSeconds: g.leaseTTL.Seconds(),
	}
	st := g.Status()
	resp.Pending = st.Pending
	resp.Complete = st.Complete
	g.mu.Lock()
	g.claimants[req.Worker] = claimant{last: g.now(), told: resp.Complete}
	g.mu.Unlock()
	if resp.Cells == nil {
		resp.Cells = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
