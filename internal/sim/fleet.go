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

// This file is the coordinator's HTTP surface: a Fleet hosts many named
// runs — each an independent Ingest with its own journal, pending set,
// leases, and (optionally) per-run token — behind one listener and one
// route table. /v2/runs/{run}/... addresses runs by name; /v1/... is an
// alias of the default run (the first one installed), so a worker that
// names no run posts, leases and reads through the same handlers and the
// same auth check as /v2/runs/{default}/.... Runs are created either
// in-process (AddRun — how bmlsweep -serve installs the run its own grid
// flags describe) or remotely (PUT /v2/runs/{run} with the grid's
// canonical cell IDs, which are pure functions of the grid — the
// coordinator never needs the client's trace files to track a run).
//
//	GET  /v2/runs                          list hosted runs with status
//	PUT  /v2/runs/{run}                    create a run from its cell IDs
//	GET  /v2/runs/{run}[/status], /v1[/status]
//	     /v2/runs/{run}/{cells,pending,lease}, /v1/{cells,pending,lease}
//	                                       the run's resources (ingest.go)
//
// The auth boundary: the fleet's global token (WithFleetAuth) guards every
// request, /v1 included; a run created with its own token is additionally
// reachable with that token on its own endpoints (so one coordinator can
// serve many teams, each holding only its run's credential). The fleet
// also owns every run's lease TTL and clock.

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

// Fleet hosts many named runs behind one HTTP route table. Safe for
// concurrent use; implements http.Handler.
type Fleet struct {
	mu          sync.Mutex
	runs        map[string]*Ingest
	order       []string // run names in creation order
	defaultRun  string   // the run /v1 aliases (first added)
	token       string   // global bearer token guarding every route (empty = open)
	leaseTTL    time.Duration
	now         func() time.Time
	openJournal JournalOpener
}

// FleetOption configures a Fleet.
type FleetOption func(*Fleet)

// WithFleetAuth requires `Authorization: Bearer <token>` on every request,
// /v1 and /v2 alike (401 otherwise). Per-run tokens (RunSpec.Token) are
// accepted alongside it on their run's endpoints. The empty string leaves
// the coordinator open.
func WithFleetAuth(token string) FleetOption {
	return func(f *Fleet) { f.token = token }
}

// WithFleetLeaseTTL sets how long a claimed cell of any hosted run stays
// reserved for its worker without a heartbeat (any POST from that worker
// renews all its leases). Shorter TTLs re-dispatch a stalled worker's
// cells sooner but tolerate less per-cell compute time between posts.
// Non-positive values keep DefaultLeaseTTL.
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
// them via PUT /v2/runs/{run}. Runs lease for DefaultLeaseTTL on the wall
// clock unless WithFleetLeaseTTL says otherwise.
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

// AddRun installs an existing Ingest as the named run under the fleet's
// lease TTL and clock. The first run added becomes the default run /v1
// aliases.
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
	f.installLocked(name, ing)
	return nil
}

// installLocked hosts ing as the named run under the fleet's lease TTL and
// clock; the first run installed becomes the default.
func (f *Fleet) installLocked(name string, ing *Ingest) {
	ing.mu.Lock()
	ing.leaseTTL, ing.now = f.leaseTTL, f.now
	ing.mu.Unlock()
	f.runs[name] = ing
	f.order = append(f.order, name)
	if f.defaultRun == "" {
		f.defaultRun = name
	}
}

// Run returns the named run's Ingest.
func (f *Fleet) Run(name string) (*Ingest, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ing, ok := f.runs[name]
	return ing, ok
}

// hosted snapshots the hosted runs and their names in creation order.
func (f *Fleet) hosted() ([]string, []*Ingest) {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := append([]string(nil), f.order...)
	runs := make([]*Ingest, len(names))
	for i, n := range names {
		runs[i] = f.runs[n]
	}
	return names, runs
}

// Statuses snapshots every hosted run in creation order — the body of
// GET /v2/runs.
func (f *Fleet) Statuses() []RunStatus {
	names, runs := f.hosted()
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

// AwaitingComplete counts, over every hosted run, the claim workers that
// claimed or posted within the lease TTL and have not had a response
// carrying complete: true since — the workers a coordinator whose runs
// are all complete keeps answering before it shuts down.
func (f *Fleet) AwaitingComplete() int {
	_, runs := f.hosted()
	n := 0
	for _, ing := range runs {
		n += ing.awaitingComplete()
	}
	return n
}

// ExpireAll runs lease expiry on every hosted run and returns the freed
// cells as run → worker → cell IDs — what the lease supervisor logs and
// re-dispatches.
func (f *Fleet) ExpireAll() map[string]map[string][]string {
	var out map[string]map[string][]string
	names, runs := f.hosted()
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

	var opts []IngestOption
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
	ing.token = token
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
	f.installLocked(name, ing)
	return ing, true, nil
}

// authorizedGlobal gates fleet-level /v2 requests (run list, run
// creation): open without a global token, otherwise bearer-token only.
func (f *Fleet) authorizedGlobal(r *http.Request) bool {
	return f.token == "" || bearerMatch(r, f.token)
}

// authorizedRun gates one run's endpoints (/v1 for the default run): open
// when neither a global nor a per-run token is configured, otherwise
// either token authorizes.
func (f *Fleet) authorizedRun(r *http.Request, ing *Ingest) bool {
	if f.token == "" && ing.token == "" {
		return true
	}
	return (f.token != "" && bearerMatch(r, f.token)) ||
		(ing.token != "" && bearerMatch(r, ing.token))
}

// ServeHTTP is the coordinator's one route table: /v1[/{sub}] resolves
// the default run and /v2/runs/{run}[/{sub}] the named one, and both go
// through handleRun.
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	var name, sub string
	switch {
	case path == "/v1" || strings.HasPrefix(path, "/v1/"):
		f.mu.Lock()
		name = f.defaultRun
		f.mu.Unlock()
		sub = strings.TrimPrefix(strings.TrimPrefix(path, "/v1"), "/")
	case path == "/v2/runs":
		f.handleRuns(w, r)
		return
	case strings.HasPrefix(path, "/v2/runs/"):
		name, sub, _ = strings.Cut(strings.TrimPrefix(path, "/v2/runs/"), "/")
		if dec, err := url.PathUnescape(name); err == nil {
			name = dec
		}
		if r.Method == http.MethodPut && sub == "" {
			f.handleCreateRun(w, r, name)
			return
		}
	default:
		http.Error(w, "unknown path (this ingest API is schema-versioned: GET/PUT /v2/runs[/{run}], /v2/runs/{run}/{cells,pending,status,lease}, and /v1/{cells,pending,status,lease} for the default run)",
			http.StatusNotFound)
		return
	}
	f.handleRun(w, r, name, sub)
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

// handleRun serves resource sub of the named run ("" names the default
// run of a fleet that hosts none).
func (f *Fleet) handleRun(w http.ResponseWriter, r *http.Request, name, sub string) {
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
			http.Error(w, "GET {run}/status", http.StatusMethodNotAllowed)
			return
		}
		ing.handleStatus(w)
	case "pending":
		if r.Method != http.MethodGet {
			http.Error(w, "GET {run}/pending", http.StatusMethodNotAllowed)
			return
		}
		ing.handlePending(w)
	case "cells":
		switch {
		case r.Method == http.MethodPost:
			ing.handleCells(w, r)
		case r.Method == http.MethodGet:
			if id := r.URL.Query().Get("id"); id != "" {
				ing.handleCellGet(w, id)
			} else {
				ing.handleRecords(w)
			}
		default:
			http.Error(w, "POST JSONL cell records to {run}/cells, or GET [?id=<cell-id>]", http.StatusMethodNotAllowed)
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
