package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// This file is the multi-tenant layer over Ingest: a Fleet hosts many
// named runs — each an independent Ingest with its own journal, pending
// set, leases, and (optionally) per-run token — behind one HTTP listener.
// The /v2/runs/... surface addresses runs by name; /v1/* delegates to a
// designated default run byte-compatibly, so a fleet coordinator is a
// drop-in replacement for the single-grid one and pre-v2 workers keep
// working unchanged. Runs are created either in-process (AddRun — how
// bmlsweep -serve installs the run its own grid flags describe) or
// remotely (PUT /v2/runs/{run} with the grid's canonical cell IDs, which
// are pure functions of the grid — the coordinator never needs the
// client's trace files to track a run).
//
// The auth boundary: the fleet's global token (WithFleetAuth) guards every
// /v2 request; a run created with its own token is additionally reachable
// with that token on its own endpoints (so one coordinator can serve many
// teams, each holding only its run's credential). /v1/* answers with the
// default run's own auth — unauthenticated by default, the compatibility
// contract — unless that run was built with WithAuth.

// RunStatus pairs a hosted run's name with its progress snapshot — one
// element of GET /v2/runs.
type RunStatus struct {
	Run    string       `json:"run"`
	Status IngestStatus `json:"status"`
}

// RunSpec is the body of PUT /v2/runs/{run}: the run's expected canonical
// cell IDs, plus an optional per-run bearer token that then also
// authorizes requests against this run's endpoints.
type RunSpec struct {
	Cells []string `json:"cells"`
	Token string   `json:"token,omitempty"`
}

// JournalOpener provisions a named run's journal: records already in it
// (the run resuming after a coordinator restart) and a writer for new
// ones. bmlsweep -serve backs it with -journal-dir, one JSONL file per
// run. A nil opener (or nil writer) leaves remotely created runs
// unjournaled.
type JournalOpener func(run string) (primed []CellRecord, w io.Writer, err error)

// Fleet hosts many named runs behind one /v1 + /v2 HTTP surface. Safe for
// concurrent use; implements http.Handler.
type Fleet struct {
	mu          sync.Mutex
	runs        map[string]*Ingest
	order       []string // run names in creation order
	defaultRun  string   // the run /v1/* delegates to (first added)
	token       string   // global bearer token guarding /v2 (empty = open)
	leaseTTL    time.Duration
	now         func() time.Time
	openJournal JournalOpener
}

// FleetOption configures a Fleet.
type FleetOption func(*Fleet)

// WithFleetAuth requires `Authorization: Bearer <token>` on every /v2
// request (401 otherwise). Per-run tokens (RunSpec.Token, or a default run
// built with WithAuth) are accepted alongside it on their run's endpoints.
// The empty string leaves /v2 open.
func WithFleetAuth(token string) FleetOption {
	return func(f *Fleet) { f.token = token }
}

// WithFleetLeaseTTL sets the lease TTL runs created through the fleet
// (PUT /v2/runs/{run}) inherit. Runs installed with AddRun keep their own.
func WithFleetLeaseTTL(d time.Duration) FleetOption {
	return func(f *Fleet) {
		if d > 0 {
			f.leaseTTL = d
		}
	}
}

// WithJournalOpener backs remotely created runs (PUT /v2/runs/{run}) with
// per-run journals: the opener is called once per new run, its primed
// records are folded in (a run resuming across a coordinator restart), and
// its writer journals the run from then on.
func WithJournalOpener(open JournalOpener) FleetOption {
	return func(f *Fleet) { f.openJournal = open }
}

// NewFleet builds an empty fleet coordinator; install at least one run
// with AddRun (the first becomes the /v1 default) or let clients create
// them via PUT /v2/runs/{run}.
func NewFleet(opts ...FleetOption) *Fleet {
	f := &Fleet{
		runs:     make(map[string]*Ingest),
		leaseTTL: DefaultLeaseTTL,
		now:      time.Now,
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// runNameOK constrains run names to path- and filename-safe tokens: they
// appear verbatim in /v2/runs/{run} URLs and as -journal-dir filenames.
func runNameOK(name string) bool {
	if name == "" || len(name) > 128 || name == "." || name == ".." {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// AddRun installs an existing Ingest as the named run. The first run added
// becomes the default run /v1/* delegates to.
func (f *Fleet) AddRun(name string, ing *Ingest) error {
	if !runNameOK(name) {
		return fmt.Errorf("sim: invalid run name %q (want [A-Za-z0-9._-]{1,128})", name)
	}
	if ing == nil {
		return fmt.Errorf("sim: run %q: nil ingest", name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.runs[name]; ok {
		return fmt.Errorf("sim: run %q already exists", name)
	}
	f.runs[name] = ing
	f.order = append(f.order, name)
	if f.defaultRun == "" {
		f.defaultRun = name
	}
	return nil
}

// Run returns the named run's Ingest.
func (f *Fleet) Run(name string) (*Ingest, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ing, ok := f.runs[name]
	return ing, ok
}

// Statuses snapshots every hosted run in creation order — the body of
// GET /v2/runs.
func (f *Fleet) Statuses() []RunStatus {
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	runs := make([]*Ingest, len(names))
	for i, n := range names {
		runs[i] = f.runs[n]
	}
	f.mu.Unlock()
	out := make([]RunStatus, len(names))
	for i, n := range names {
		out[i] = RunStatus{Run: n, Status: runs[i].Status()}
	}
	return out
}

// AllComplete reports whether every hosted run's grid is covered — the
// fleet coordinator's exit condition.
func (f *Fleet) AllComplete() bool {
	for _, rs := range f.Statuses() {
		if !rs.Status.Complete {
			return false
		}
	}
	return true
}

// ExpireAll runs lease expiry on every hosted run and returns the freed
// cells as run → worker → cell IDs — what the lease supervisor logs and
// re-dispatches.
func (f *Fleet) ExpireAll() map[string]map[string][]string {
	var out map[string]map[string][]string
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	runs := make([]*Ingest, len(names))
	for i, n := range names {
		runs[i] = f.runs[n]
	}
	f.mu.Unlock()
	for i, n := range names {
		if freed := runs[i].ExpireLeases(); len(freed) > 0 {
			if out == nil {
				out = make(map[string]map[string][]string)
			}
			out[n] = freed
		}
	}
	return out
}

// CreateRun installs a new run from canonical cell IDs — the in-process
// half of PUT /v2/runs/{run}. It inherits the fleet's lease TTL and clock,
// a journal from the fleet's JournalOpener (primed records fold in, so a
// run survives coordinator restarts), and an optional per-run token.
// Creating an existing run with the same cell set is idempotent (created
// == false); a different cell set is an error — run names identify grids.
func (f *Fleet) CreateRun(name string, ids []string, token string) (ing *Ingest, created bool, err error) {
	if !runNameOK(name) {
		return nil, false, fmt.Errorf("sim: invalid run name %q (want [A-Za-z0-9._-]{1,128})", name)
	}
	if len(ids) == 0 {
		return nil, false, fmt.Errorf("sim: run %q: no cells", name)
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, false, fmt.Errorf("sim: run %q: empty cell ID", name)
		}
		if seen[id] {
			return nil, false, fmt.Errorf("sim: run %q: duplicate cell ID %s", name, id)
		}
		seen[id] = true
	}
	f.mu.Lock()
	if existing, ok := f.runs[name]; ok {
		defer f.mu.Unlock()
		if len(existing.cells.order) != len(ids) {
			return nil, false, fmt.Errorf("sim: run %q already exists with %d cells, not %d — run names identify grids", name, len(existing.cells.order), len(ids))
		}
		for _, id := range ids {
			if !existing.cells.expects(id) {
				return nil, false, fmt.Errorf("sim: run %q already exists with a different cell set (e.g. it lacks %s) — run names identify grids", name, id)
			}
		}
		return existing, false, nil
	}
	opener := f.openJournal
	f.mu.Unlock()

	opts := []IngestOption{WithLeaseTTL(f.leaseTTL), WithClock(f.now), WithAuth(token)}
	var primed []CellRecord
	if opener != nil {
		var jw io.Writer
		if primed, jw, err = opener(name); err != nil {
			return nil, false, fmt.Errorf("sim: run %q journal: %w", name, err)
		}
		if jw != nil {
			opts = append(opts, WithJournal(jw))
		}
	}
	ing = NewIngestIDs(append([]string(nil), ids...), opts...)
	if len(primed) > 0 {
		if _, err := ing.Prime(primed); err != nil {
			return nil, false, fmt.Errorf("sim: run %q journal: %w", name, err)
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if existing, ok := f.runs[name]; ok {
		// Lost a creation race; the winner's run is authoritative.
		return existing, false, nil
	}
	f.runs[name] = ing
	f.order = append(f.order, name)
	if f.defaultRun == "" {
		f.defaultRun = name
	}
	return ing, true, nil
}

// authorizedGlobal gates fleet-level /v2 requests (run list, run
// creation): open without a global token, otherwise bearer-token only.
func (f *Fleet) authorizedGlobal(r *http.Request) bool {
	return f.token == "" || bearerMatch(r, f.token)
}

// authorizedRun gates one run's /v2 endpoints: open when neither a global
// nor a per-run token is configured, otherwise either token authorizes.
func (f *Fleet) authorizedRun(r *http.Request, ing *Ingest) bool {
	if f.token == "" && ing.token == "" {
		return true
	}
	return (f.token != "" && bearerMatch(r, f.token)) ||
		(ing.token != "" && bearerMatch(r, ing.token))
}

// ServeHTTP routes the fleet surface: /v1/* to the default run
// (byte-compatibly — same handlers, same auth, as a standalone Ingest)
// and /v2/runs/... by run name.
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/v1/") || path == "/v1":
		f.mu.Lock()
		ing := f.runs[f.defaultRun]
		f.mu.Unlock()
		if ing == nil {
			http.Error(w, "this fleet coordinator hosts no default run; address a named run under /v2/runs/", http.StatusNotFound)
			return
		}
		ing.ServeHTTP(w, r)
	case path == "/v2/runs":
		f.handleRuns(w, r)
	case strings.HasPrefix(path, "/v2/runs/"):
		f.handleRun(w, r, strings.TrimPrefix(path, "/v2/runs/"))
	default:
		http.Error(w, "unknown path (this ingest API is schema-versioned: /v1/{cells,pending,status} for the default run, GET/PUT /v2/runs[/{run}], /v2/runs/{run}/{cells,pending,status,lease})",
			http.StatusNotFound)
	}
}

// handleRuns serves GET /v2/runs: every hosted run with its status.
func (f *Fleet) handleRuns(w http.ResponseWriter, r *http.Request) {
	if !f.authorizedGlobal(r) {
		deny401(w)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "GET /v2/runs lists hosted runs; PUT /v2/runs/{run} creates one", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Runs []RunStatus `json:"runs"`
	}{Runs: f.Statuses()})
}

// handleRun routes /v2/runs/{run}[/{sub}].
func (f *Fleet) handleRun(w http.ResponseWriter, r *http.Request, rest string) {
	name, sub, _ := strings.Cut(rest, "/")
	if dec, err := url.PathUnescape(name); err == nil {
		name = dec
	}
	if r.Method == http.MethodPut && sub == "" {
		f.handleCreateRun(w, r, name)
		return
	}
	ing, ok := f.Run(name)
	if !ok {
		if !f.authorizedGlobal(r) {
			// Don't leak which run names exist to unauthenticated probes.
			deny401(w)
			return
		}
		http.Error(w, fmt.Sprintf("unknown run %q (GET /v2/runs lists hosted runs; PUT /v2/runs/{run} creates one)", name), http.StatusNotFound)
		return
	}
	if !f.authorizedRun(r, ing) {
		deny401(w)
		return
	}
	switch sub {
	case "", "status":
		if r.Method != http.MethodGet {
			http.Error(w, "GET /v2/runs/{run}/status", http.StatusMethodNotAllowed)
			return
		}
		ing.handleStatus(w)
	case "pending":
		if r.Method != http.MethodGet {
			http.Error(w, "GET /v2/runs/{run}/pending", http.StatusMethodNotAllowed)
			return
		}
		ing.handlePending(w)
	case "cells":
		switch {
		case r.Method == http.MethodPost:
			ing.handleCells(w, r)
		case r.Method == http.MethodGet && r.URL.Query().Get("id") != "":
			ing.handleCellGet(w, r)
		case r.Method == http.MethodGet:
			ing.handleRecords(w)
		default:
			http.Error(w, "POST JSONL cell records to /v2/runs/{run}/cells, or GET [?id=<cell-id>]", http.StatusMethodNotAllowed)
		}
	case "lease":
		ing.handleLease(w, r)
	default:
		http.Error(w, fmt.Sprintf("unknown run resource %q (want cells, pending, status, or lease)", sub), http.StatusNotFound)
	}
}

// handleCreateRun serves PUT /v2/runs/{run}.
func (f *Fleet) handleCreateRun(w http.ResponseWriter, r *http.Request, name string) {
	if !f.authorizedGlobal(r) {
		deny401(w)
		return
	}
	var spec RunSpec
	if err := strictJSON(http.MaxBytesReader(w, r.Body, 64<<20), &spec); err != nil {
		http.Error(w, fmt.Sprintf(`bad run spec: %v (want {"cells":["<canonical cell ID>",...]})`, err), http.StatusBadRequest)
		return
	}
	ing, created, err := f.CreateRun(name, spec.Cells, spec.Token)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(RunStatus{Run: name, Status: ing.Status()})
}
