package sim

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a race-safe manual time source for deterministic lease
// tests: HTTP handlers read it from server goroutines while the test
// advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLeaseLifecycle pins the claim → expire → re-claim state machine at
// the Go API level: a stalled worker's cells return to the pool exactly
// once the TTL passes, a success deletes its lease, and a second worker
// completes the run — the regression test for a stalled worker holding a
// grid open forever.
func TestLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	jobs, recs := gridAndRecords(t)
	ing := NewIngest(jobs)
	oneRunFleet(t, ing, WithFleetLeaseTTL(time.Minute), withFleetClock(clock.Now))
	ids := CellIDs(jobs)

	// Worker a claims the whole grid, in grid order.
	got := ing.Claim("a", len(ids))
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("Claim(a) = %v, want %v", got, ids)
	}
	// Everything is leased: another worker gets nothing, but Pending still
	// lists every cell — a lease is a scheduling hint, not coverage.
	if got := ing.Claim("b", len(ids)); len(got) != 0 {
		t.Fatalf("Claim(b) over a fully leased grid = %v, want none", got)
	}
	if p := ing.Pending(); len(p) != len(ids) {
		t.Fatalf("Pending() = %d cells under lease, want all %d", len(p), len(ids))
	}
	if st := ing.Status(); st.Leased != len(ids) {
		t.Fatalf("status.Leased = %d, want %d", st.Leased, len(ids))
	}

	// One success lands; its lease dies with it.
	if err := ing.Add(recs[0]); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); st.Leased != len(ids)-1 {
		t.Fatalf("status.Leased after success = %d, want %d", st.Leased, len(ids)-1)
	}

	// Nothing expires before the TTL.
	clock.Advance(59 * time.Second)
	if freed := ing.ExpireLeases(); freed != nil {
		t.Fatalf("ExpireLeases before TTL = %v, want none", freed)
	}
	// Past the TTL, every cell worker a still held is freed, grouped and
	// sorted under its name.
	clock.Advance(2 * time.Second)
	freed := ing.ExpireLeases()
	if len(freed) != 1 || len(freed["a"]) != len(ids)-1 {
		t.Fatalf("ExpireLeases = %v, want %d cells from a", freed, len(ids)-1)
	}
	if st := ing.Status(); st.Leased != 0 {
		t.Fatalf("status.Leased after expiry = %d, want 0", st.Leased)
	}

	// Worker b claims the freed cells and completes the run.
	claimed := ing.Claim("b", len(ids))
	if len(claimed) != len(ids)-1 {
		t.Fatalf("Claim(b) after expiry = %d cells, want %d", len(claimed), len(ids)-1)
	}
	for _, rec := range recs[1:] {
		if err := ing.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := ing.Status()
	if !st.Complete || st.Received != len(ids) || st.Leased != 0 {
		t.Fatalf("final status %+v", st)
	}
	select {
	case <-ing.Done():
	default:
		t.Fatal("Done not closed after the second worker completed the run")
	}

	// The stalled worker's late posts are counted duplicates, not errors.
	if err := ing.Add(recs[1]); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); st.Duplicates != 1 {
		t.Fatalf("late post counted %d duplicates, want 1", st.Duplicates)
	}
}

// TestClaimRenewsOwnLeases pins the claim-as-heartbeat rule: a worker
// claiming in batches never loses an earlier batch mid-compute.
func TestClaimRenewsOwnLeases(t *testing.T) {
	clock := newFakeClock()
	jobs, _ := gridAndRecords(t)
	ing := NewIngest(jobs)
	oneRunFleet(t, ing, WithFleetLeaseTTL(time.Minute), withFleetClock(clock.Now))

	ids := CellIDs(jobs)
	first := ing.Claim("a", 2)
	if len(first) != 2 {
		t.Fatalf("claimed %d cells, want 2", len(first))
	}
	clock.Advance(45 * time.Second)
	// A bigger claim by the same worker re-claims its own still-uncovered
	// cells plus the rest of the grid — and renews everything it holds.
	second := ing.Claim("a", len(ids))
	if !reflect.DeepEqual(second, ids) {
		t.Fatalf("second claim = %v, want the whole grid %v", second, ids)
	}
	clock.Advance(30 * time.Second) // 75s after the first claim, 30s after the renewal
	if freed := ing.ExpireLeases(); freed != nil {
		t.Fatalf("leases expired despite the renewing claim: %v", freed)
	}
	clock.Advance(31 * time.Second)
	if freed := ing.ExpireLeases(); len(freed["a"]) != len(ids) {
		t.Fatalf("ExpireLeases = %v, want all %d cells from a", freed, len(ids))
	}
}

// oneRunFleet hosts ing as the default run of a fleet built with opts:
// the one way a test serves a run over HTTP, and the one place a run gets
// its lease TTL and clock.
func oneRunFleet(t *testing.T, ing *Ingest, opts ...FleetOption) *Fleet {
	t.Helper()
	f := NewFleet(opts...)
	if err := f.AddRun("default", ing); err != nil {
		t.Fatal(err)
	}
	return f
}

// fleetFixture builds a Fleet hosting the test grid as its default run.
func fleetFixture(t *testing.T, clock *fakeClock, opts ...FleetOption) (*Fleet, *Ingest, []SweepJob, []CellRecord) {
	t.Helper()
	jobs, recs := gridAndRecords(t)
	if clock != nil {
		opts = append(opts, withFleetClock(clock.Now))
	}
	ing := NewIngest(jobs)
	return oneRunFleet(t, ing, opts...), ing, jobs, recs
}

// TestLeaseHTTPProtocol drives the lease endpoint the way a claim worker
// does: ClaimCells, posts carrying the worker identity as heartbeats, and
// expiry freeing a quiet worker's cells for the next claimer.
func TestLeaseHTTPProtocol(t *testing.T) {
	clock := newFakeClock()
	f, ing, jobs, recs := fleetFixture(t, clock, WithFleetLeaseTTL(time.Minute))
	srv := httptest.NewServer(f)
	defer srv.Close()
	ids := CellIDs(jobs)

	lr, err := ClaimCells(srv.Client(), srv.URL, "default", "", "w1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Cells) != 2 || lr.TTLSeconds != 60 || lr.Complete || lr.Pending != len(ids) {
		t.Fatalf("first claim %+v", lr)
	}
	if !reflect.DeepEqual(lr.Cells, ids[:2]) {
		t.Fatalf("claimed %v, want the first cells in grid order %v", lr.Cells, ids[:2])
	}

	// A post with the worker's identity renews its leases...
	clock.Advance(50 * time.Second)
	var body bytes.Buffer
	if err := WriteCellRecord(&body, recs[0]); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/runs/default/cells", &body)
	req.Header.Set(WorkerHeader, "w1")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/runs/default/cells = %s", resp.Status)
	}
	clock.Advance(50 * time.Second) // 100s after claim, 50s after heartbeat
	if freed := f.ExpireAll(); freed != nil {
		t.Fatalf("heartbeated lease expired: %v", freed)
	}

	// ...and without further posts the lease expires, freeing the cell for
	// the next claimer.
	clock.Advance(11 * time.Second)
	freed := f.ExpireAll()
	if len(freed["default"]["w1"]) != 1 || freed["default"]["w1"][0] != ids[1] {
		t.Fatalf("ExpireAll = %v, want run default / worker w1 / cell %s", freed, ids[1])
	}
	lr, err = ClaimCells(srv.Client(), srv.URL, "default", "", "w2", len(ids))
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Cells) != len(ids)-1 {
		t.Fatalf("w2 claimed %d cells, want the %d uncovered ones", len(lr.Cells), len(ids)-1)
	}

	// Malformed claims are 400s, GET is a 405.
	for _, bad := range []string{`{"worker":"","max":3}`, `{"worker":"x","max":0}`, `{`} {
		resp, err := http.Post(srv.URL+"/v2/runs/default/lease", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("lease %s = %s, want 400", bad, resp.Status)
		}
	}
	resp, err = http.Get(srv.URL + "/v2/runs/default/lease")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET lease = %s, want 405", resp.Status)
	}
	_ = ing
}

// TestLeaseRejectsJunk: a lease request body is exactly one object of
// known fields. Trailing data or an unknown field is a 400 that grants
// nothing; trailing whitespace is not junk.
func TestLeaseRejectsJunk(t *testing.T) {
	jobs, _ := gridAndRecords(t)
	for _, tc := range []struct {
		body         string
		want, leased int
	}{
		{`{"worker":"x","max":1} trailing`, http.StatusBadRequest, 0},
		{`{"worker":"x","max":1}{"worker":"y","max":1}`, http.StatusBadRequest, 0},
		{`{"worker":"x","max":1,"bogus":3}`, http.StatusBadRequest, 0},
		{`{"worker":"x","maximum":1}`, http.StatusBadRequest, 0},
		{"{\"worker\":\"x\",\"max\":1}\n\t ", http.StatusOK, 1},
	} {
		ing := NewIngest(jobs)
		w := httptest.NewRecorder()
		ing.handleLease(w, httptest.NewRequest(http.MethodPost, "/v2/runs/default/lease", strings.NewReader(tc.body)))
		if w.Code != tc.want {
			t.Errorf("lease %q = %d, want %d:\n%s", tc.body, w.Code, tc.want, w.Body)
		}
		if leased := ing.Status().Leased; leased != tc.leased {
			t.Errorf("lease %q left %d cells leased, want %d", tc.body, leased, tc.leased)
		}
	}
}

// TestCreateRunRejectsJunk holds PUT /v2/runs/{run} to strict decoding: a
// misspelt field (which would otherwise create the run with no per-run
// token) and data after the spec are rejected with a 400 and create
// nothing.
func TestCreateRunRejectsJunk(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"cells":["a","b"],"tokn":"secret"}`, http.StatusBadRequest},
		{`{"cells":["a","b"]} trailing`, http.StatusBadRequest},
		{`{"cells":["a"]}{"cells":["b"]}`, http.StatusBadRequest},
		{"{\"cells\":[\"a\",\"b\"],\"token\":\"secret\"}\n\t ", http.StatusCreated},
	} {
		f := NewFleet()
		w := httptest.NewRecorder()
		f.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v2/runs/exp", strings.NewReader(tc.body)))
		if w.Code != tc.want {
			t.Errorf("PUT %q = %d, want %d:\n%s", tc.body, w.Code, tc.want, w.Body)
		}
		if _, exists := f.Run("exp"); exists != (tc.want == http.StatusCreated) {
			t.Errorf("PUT %q: run exists = %v after status %d", tc.body, exists, w.Code)
		}
	}
}

// TestLeaseContention completes a run under -race with a stalled worker
// mid-compute: the stalled worker's leases expire, a healthy worker claims
// and finishes the grid, and the stalled worker's late posts dedup.
func TestLeaseContention(t *testing.T) {
	var journal bytes.Buffer
	jobs, recs := gridAndRecords(t)
	byID := make(map[string]CellRecord, len(recs))
	for _, rec := range recs {
		byID[rec.ID] = rec
	}
	ing := NewIngest(jobs, WithJournal(&journal))
	f := oneRunFleet(t, ing, WithFleetLeaseTTL(200*time.Millisecond))
	srv := httptest.NewServer(f)
	defer srv.Close()

	// The supervisor loop: reclaim expired leases until the run completes.
	stop := make(chan struct{})
	var supervisor sync.WaitGroup
	supervisor.Add(1)
	go func() {
		defer supervisor.Done()
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				f.ExpireAll()
			}
		}
	}()

	post := func(worker string, rec CellRecord) {
		sink, err := NewHTTPSink(srv.URL, WithSinkWorker(worker), WithSinkClient(srv.Client()))
		if err != nil {
			t.Error(err)
			return
		}
		if err := sink.Emit(rec); err != nil {
			t.Errorf("worker %s: %v", worker, err)
		}
	}

	// The stalled worker claims a batch and goes quiet mid-compute.
	stalledClaim, err := ClaimCells(srv.Client(), srv.URL, "default", "", "stalled", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stalledClaim.Cells) != 3 {
		t.Fatalf("stalled worker claimed %d cells, want 3", len(stalledClaim.Cells))
	}

	// The healthy worker polls, claims, and streams until complete — it
	// only gets the stalled worker's cells after their leases expire.
	var healthy sync.WaitGroup
	healthy.Add(1)
	go func() {
		defer healthy.Done()
		for {
			lr, err := ClaimCells(srv.Client(), srv.URL, "default", "", "healthy", 2)
			if err != nil {
				t.Error(err)
				return
			}
			if lr.Complete {
				return
			}
			if len(lr.Cells) == 0 {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			for _, id := range lr.Cells {
				post("healthy", byID[id])
			}
		}
	}()

	select {
	case <-ing.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run did not complete: the stalled worker's leases never freed")
	}
	healthy.Wait()
	close(stop)
	supervisor.Wait()

	// The stalled worker wakes up and posts its stale batch: every record
	// dedups against the healthy worker's successes.
	for _, id := range stalledClaim.Cells {
		post("stalled", byID[id])
	}
	st := ing.Status()
	if !st.Complete || st.Received != len(jobs) || st.Duplicates != 3 {
		t.Fatalf("final status %+v, want complete with 3 duplicates", st)
	}
	// First success wins: the journal holds exactly one line per cell.
	if lines := strings.Count(journal.String(), "\n"); lines != len(jobs) {
		t.Fatalf("journal has %d lines, want %d (one per cell)", lines, len(jobs))
	}
}

func get(t *testing.T, client *http.Client, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestFleetAuth pins the auth boundary: the global token guards every
// route, /v1 included (constant 401s, no run-name leaking), and per-run
// tokens authorize only their run.
func TestFleetAuth(t *testing.T) {
	f, _, jobs, recs := fleetFixture(t, nil, WithFleetAuth("global-secret"))
	srv := httptest.NewServer(f)
	defer srv.Close()

	// /v1 is the default run: it takes the global token like /v2 does.
	if resp := get(t, srv.Client(), srv.URL+"/v1/status", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/status = %s, want 401", resp.Status)
	}
	if resp := get(t, srv.Client(), srv.URL+"/v1/status", "global-secret"); resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated /v1/status = %s, want 200", resp.Status)
	}

	// /v2 without (or with a wrong) token: 401 with a challenge header.
	for _, token := range []string{"", "wrong", "global-secret2"} {
		resp := get(t, srv.Client(), srv.URL+"/v2/runs", token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET /v2/runs with token %q = %s, want 401", token, resp.Status)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatal("401 without a WWW-Authenticate challenge")
		}
	}
	// Unknown-run probes don't reveal which run names exist.
	if resp := get(t, srv.Client(), srv.URL+"/v2/runs/nope/status", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated unknown-run probe = %s, want 401", resp.Status)
	}
	if resp := get(t, srv.Client(), srv.URL+"/v2/runs/nope/status", "global-secret"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("authenticated unknown-run probe = %s, want 404", resp.Status)
	}
	if resp := get(t, srv.Client(), srv.URL+"/v2/runs", "global-secret"); resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated GET /v2/runs = %s, want 200", resp.Status)
	}

	// A run created with its own token accepts either credential on its
	// endpoints — but the per-run token opens nothing else.
	if _, created, err := f.CreateRun("team", CellIDs(jobs)[:2], "team-secret"); err != nil || !created {
		t.Fatalf("CreateRun(team) = created %v, err %v", created, err)
	}
	for token, want := range map[string]int{
		"team-secret":   http.StatusOK,
		"global-secret": http.StatusOK,
		"wrong":         http.StatusUnauthorized,
		"":              http.StatusUnauthorized,
	} {
		if resp := get(t, srv.Client(), srv.URL+"/v2/runs/team/status", token); resp.StatusCode != want {
			t.Errorf("GET /v2/runs/team/status with token %q = %s, want %d", token, resp.Status, want)
		}
	}
	if resp := get(t, srv.Client(), srv.URL+"/v2/runs", "team-secret"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("per-run token on the fleet-level run list = %s, want 401", resp.Status)
	}

	// An authorized worker can post to the token-guarded run.
	sink, err := NewHTTPSink(srv.URL, WithSinkRun("team"), WithSinkToken("team-secret"), WithSinkClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(recs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPSink401FailsFast pins the credential failure mode: a 401 is
// permanent — one request, no retries, no backoff sleeps — so a worker
// with a bad token fails loudly instead of hammering the coordinator.
func TestHTTPSink401FailsFast(t *testing.T) {
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		deny401(w)
	}))
	defer srv.Close()

	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept, WithSinkToken("revoked"))
	err := s.Emit(testRecord("cell-1"))
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("Emit against 401 = %v, want a permanent 401 error", err)
	}
	if requests != 1 || len(slept) != 0 {
		t.Fatalf("made %d requests with %d backoff sleeps, want exactly 1 and 0 (fail fast)", requests, len(slept))
	}
}

// TestFleetJournalIsolation pins per-run journals: each run's records land
// only in its own journal, and re-opening the fleet over the same journals
// primes each run independently — the coordinator-restart path.
func TestFleetJournalIsolation(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	ids := CellIDs(jobs)
	journals := map[string]*bytes.Buffer{}
	opener := func(run string) ([]CellRecord, io.Writer, error) {
		buf, ok := journals[run]
		if !ok {
			buf = &bytes.Buffer{}
			journals[run] = buf
		}
		primed, _, err := ReadJournal(bytes.NewReader(buf.Bytes()))
		return primed, buf, err
	}

	f := NewFleet(WithJournalOpener(func(run string) ([]CellRecord, io.Writer, error) { return opener(run) }))
	if _, _, err := f.CreateRun("a", ids[:2], ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.CreateRun("b", ids[2:], ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f)
	defer srv.Close()

	for run, rec := range map[string]CellRecord{"a": recs[0], "b": recs[2]} {
		sink, err := NewHTTPSink(srv.URL, WithSinkRun(run), WithSinkClient(srv.Client()))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := journals["a"].String(); !strings.Contains(got, recs[0].ID) || strings.Contains(got, recs[2].ID) {
		t.Fatalf("run a journal cross-contaminated:\n%s", got)
	}
	if got := journals["b"].String(); !strings.Contains(got, recs[2].ID) || strings.Contains(got, recs[0].ID) {
		t.Fatalf("run b journal cross-contaminated:\n%s", got)
	}

	// Restart: a fresh fleet over the same journals primes each run.
	f2 := NewFleet(WithJournalOpener(func(run string) ([]CellRecord, io.Writer, error) { return opener(run) }))
	if _, _, err := f2.CreateRun("a", ids[:2], ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f2.CreateRun("b", ids[2:], ""); err != nil {
		t.Fatal(err)
	}
	for _, rs := range f2.Statuses() {
		if rs.Status.Received != 1 {
			t.Fatalf("after restart, run %s primed %d records, want 1", rs.Run, rs.Status.Received)
		}
	}
}

// TestFleetV1ByteCompat holds /v1 byte-identical to /v2/runs/{default}:
// two fleets over the same grid and clock, each hosting it as run alpha
// behind a token, get the same requests, one through /v1 and one through
// /v2/runs/alpha, and must answer each with the same status, content type
// and body — 401s without the token, the POST ack, the lease, status,
// pending, one cell, every record, and the 404/405 errors.
func TestFleetV1ByteCompat(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	clock := newFakeClock()
	fleets := [2]*Fleet{}
	for i := range fleets {
		fleets[i] = NewFleet(WithFleetAuth("secret"), withFleetClock(clock.Now))
		if err := fleets[i].AddRun("alpha", NewIngest(jobs)); err != nil {
			t.Fatal(err)
		}
	}
	var post bytes.Buffer
	if err := WriteCellRecord(&post, recs[0]); err != nil {
		t.Fatal(err)
	}
	serve := func(method, sub, token, body string) [2]*httptest.ResponseRecorder {
		t.Helper()
		var out [2]*httptest.ResponseRecorder
		for i, prefix := range []string{"/v1", "/v2/runs/alpha"} {
			req := httptest.NewRequest(method, prefix+sub, strings.NewReader(body))
			req.Header.Set(WorkerHeader, "w1")
			if token != "" {
				req.Header.Set("Authorization", "Bearer "+token)
			}
			out[i] = httptest.NewRecorder()
			fleets[i].ServeHTTP(out[i], req)
		}
		v1, v2 := out[0], out[1]
		if v1.Code != v2.Code || v1.Header().Get("Content-Type") != v2.Header().Get("Content-Type") || v1.Body.String() != v2.Body.String() {
			t.Fatalf("%s %s diverges:\n/v1: %d %s %q\n/v2: %d %s %q", method, sub,
				v1.Code, v1.Header().Get("Content-Type"), v1.Body, v2.Code, v2.Header().Get("Content-Type"), v2.Body)
		}
		return out
	}
	for _, sub := range []string{"", "/status", "/pending", "/cells", "/lease"} {
		if got := serve(http.MethodGet, sub, "", "")[0].Code; got != http.StatusUnauthorized {
			t.Fatalf("GET %s without the token = %d, want 401", sub, got)
		}
	}
	if got := serve(http.MethodPost, "/cells", "", post.String())[0].Code; got != http.StatusUnauthorized {
		t.Fatalf("POST /cells without the token = %d, want 401", got)
	}
	if st := fleets[0].Statuses()[0].Status; st.Received != 0 {
		t.Fatalf("an unauthenticated post was folded in: %+v", st)
	}

	ack := serve(http.MethodPost, "/cells", "secret", post.String())[0].Body
	var resp IngestResponse
	if err := json.Unmarshal(ack.Bytes(), &resp); err != nil || resp.Accepted != 1 {
		t.Fatalf("POST ack %q (%v), want one accepted record", ack, err)
	}
	clock.Advance(3 * time.Second)
	lease := serve(http.MethodPost, "/lease", "secret", `{"worker":"w1","max":2}`)[0]
	var lr LeaseResponse
	if err := json.Unmarshal(lease.Body.Bytes(), &lr); err != nil || len(lr.Cells) != 2 {
		t.Fatalf("lease %q (%v), want two cells", lease.Body, err)
	}
	serve(http.MethodPost, "/cells", "secret", post.String()) // a duplicate's ack
	for _, sub := range []string{"", "/status", "/pending", "/cells", "/cells?id=" + url.QueryEscape(recs[0].ID)} {
		if got := serve(http.MethodGet, sub, "secret", "")[0].Code; got != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", sub, got)
		}
	}
	for _, c := range []struct {
		method, sub string
		want        int
	}{
		{http.MethodGet, "/cells?id=" + url.QueryEscape(recs[1].ID), http.StatusNotFound},
		{http.MethodGet, "/bogus", http.StatusNotFound},
		{http.MethodDelete, "/cells", http.StatusMethodNotAllowed},
		{http.MethodPost, "/status", http.StatusMethodNotAllowed},
		{http.MethodPost, "/pending", http.StatusMethodNotAllowed},
		{http.MethodGet, "/lease", http.StatusMethodNotAllowed},
	} {
		if got := serve(c.method, c.sub, "secret", "")[0].Code; got != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.sub, got, c.want)
		}
	}
}

// TestClaimWithoutRunUsesDefaultRun is the regression test for a claim
// worker that names no run against a coordinator whose default run is not
// called "default": the lease goes to /v1/lease, so it gets the default
// run's cells, and the sink's posts land in that same run.
func TestClaimWithoutRunUsesDefaultRun(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	ing := NewIngest(jobs)
	f := NewFleet()
	if err := f.AddRun("alpha", ing); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f)
	defer srv.Close()

	lr, err := ClaimCells(srv.Client(), srv.URL, "", "", "w1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ids := CellIDs(jobs); !reflect.DeepEqual(lr.Cells, ids[:2]) || lr.Pending != len(ids) {
		t.Fatalf("claim without a run = %+v, want the first two of %d cells", lr, len(ids))
	}
	sink, err := NewHTTPSink(srv.URL, WithSinkClient(srv.Client()), WithSinkWorker("w1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(recs[0]); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); st.Received != 1 || st.Leased != 1 || len(st.Remotes) != 1 || st.Remotes[0].Remote != "w1" {
		t.Fatalf("run alpha after the claim and one post: %+v", st)
	}
}

// TestCreateRunHTTP pins the PUT /v2/runs/{run} contract: 201 on create,
// 200 on an idempotent re-PUT, 409 on a conflicting cell set, 400 on bad
// specs, and the run list in creation order.
func TestCreateRunHTTP(t *testing.T) {
	f, _, jobs, recs := fleetFixture(t, nil)
	srv := httptest.NewServer(f)
	defer srv.Close()
	ids := CellIDs(jobs)

	put := func(name string, spec any) *http.Response {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v2/runs/"+name, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := put("exp1", RunSpec{Cells: ids[:3]})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %s, want 201", resp.Status)
	}
	var rs RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	if rs.Run != "exp1" || rs.Status.Total != 3 || rs.Status.Pending != 3 {
		t.Fatalf("created run status %+v", rs)
	}
	if resp := put("exp1", RunSpec{Cells: ids[:3]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-PUT = %s, want 200", resp.Status)
	}
	if resp := put("exp1", RunSpec{Cells: ids[:2]}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-PUT = %s, want 409 (run names identify grids)", resp.Status)
	}
	if resp := put("bad%20name", RunSpec{Cells: ids[:1]}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid run name = %s, want 400", resp.Status)
	}
	if resp := put("empty", RunSpec{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty cell set = %s, want 400", resp.Status)
	}

	listResp := get(t, srv.Client(), srv.URL+"/v2/runs", "")
	var list struct {
		Runs []RunStatus `json:"runs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 2 || list.Runs[0].Run != "default" || list.Runs[1].Run != "exp1" {
		t.Fatalf("run list %+v, want [default exp1] in creation order", list.Runs)
	}

	// The records endpoint streams a run's covered cells as JSONL.
	sink, err := NewHTTPSink(srv.URL, WithSinkRun("exp1"), WithSinkClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(recs[0]); err != nil {
		t.Fatal(err)
	}
	recResp := get(t, srv.Client(), srv.URL+"/v2/runs/exp1/cells", "")
	got, err := ReadCellRecords(recResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != recs[0].ID {
		t.Fatalf("GET cells returned %+v, want the one posted record", got)
	}
}

// TestAPIEndpointNamedRuns extends the /v1 spelling table with the named-
// run resolution rules — a run name picks the /v2 path from a bare base,
// and refuses a base that already names a path — and with a /v1 resource
// other than cells.
func TestAPIEndpointNamedRuns(t *testing.T) {
	for base, want := range map[string]string{
		"http://h:1":  "http://h:1/v2/runs/exp.1/cells",
		"http://h:1/": "http://h:1/v2/runs/exp.1/cells",
		"https://h:1": "https://h:1/v2/runs/exp.1/cells",
	} {
		got, err := apiEndpoint(base, "exp.1", "cells")
		if err != nil {
			t.Errorf("apiEndpoint(%q, exp.1): %v", base, err)
		} else if got != want {
			t.Errorf("apiEndpoint(%q, exp.1) = %q, want %q", base, got, want)
		}
	}
	// With no run, every /v1 spelling resolves from its /v1 root, so a
	// lease never goes to a cells URL.
	for base, want := range map[string]string{
		"http://h:1":            "http://h:1/v1/lease",
		"http://h:1/v1":         "http://h:1/v1/lease",
		"http://h:1/v1/":        "http://h:1/v1/lease",
		"http://h:1/v1/cells":   "http://h:1/v1/lease",
		"http://h:1/v1/cells/":  "http://h:1/v1/lease",
		"http://h:1/p/v1/cells": "http://h:1/p/v1/lease",
	} {
		if got, err := apiEndpoint(base, "", "lease"); err != nil || got != want {
			t.Errorf("apiEndpoint(%q, lease) = %q, %v; want %q", base, got, err, want)
		}
	}
	if _, err := apiEndpoint("http://h:1/v1", "exp", "cells"); err == nil {
		t.Error("apiEndpoint with both a /v1 path and a run name should fail")
	}
	if _, err := apiEndpoint("http://h:1", "bad/name", "cells"); err == nil {
		t.Error("apiEndpoint with an invalid run name should fail")
	}
}

// TestHTTPClientWithCA pins the TLS trust path end to end: a client built
// from the coordinator's own certificate PEM talks to an HTTPS fleet, and
// bad trust inputs fail loudly.
func TestHTTPClientWithCA(t *testing.T) {
	f, _, _, _ := fleetFixture(t, nil)
	srv := httptest.NewTLSServer(f)
	defer srv.Close()

	dir := t.TempDir()
	caPath := filepath.Join(dir, "coordinator.pem")
	pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: srv.Certificate().Raw})
	if err := os.WriteFile(caPath, pemBytes, 0o600); err != nil {
		t.Fatal(err)
	}
	client, err := HTTPClientWithCA(caPath)
	if err != nil {
		t.Fatal(err)
	}
	if resp := get(t, client, srv.URL+"/v2/runs", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/runs over TLS = %s, want 200", resp.Status)
	}
	// The default pool does NOT trust the self-signed server: the CA flag
	// is load-bearing, not decorative.
	if plain, err := HTTPClientWithCA(""); err != nil {
		t.Fatal(err)
	} else if _, err := plain.Get(srv.URL + "/v2/runs"); err == nil {
		t.Fatal("an empty-CA client trusted the self-signed coordinator")
	} else if _, ok := err.(*x509.UnknownAuthorityError); !ok && !strings.Contains(err.Error(), "certificate") {
		t.Fatalf("unexpected trust error: %v", err)
	}

	if _, err := HTTPClientWithCA(filepath.Join(dir, "missing.pem")); err == nil {
		t.Fatal("a missing CA file should fail")
	}
	notPEM := filepath.Join(dir, "junk.pem")
	if err := os.WriteFile(notPEM, []byte("not a certificate"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := HTTPClientWithCA(notPEM); err == nil {
		t.Fatal("a non-PEM CA file should fail")
	}
}

// TestRunNameValidation pins the name charset shared by URLs and
// journal-dir filenames.
func TestRunNameValidation(t *testing.T) {
	for _, ok := range []string{"a", "exp-1", "Exp_2.rerun", strings.Repeat("x", 128)} {
		if !runNameOK(ok) {
			t.Errorf("runNameOK(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "ü", strings.Repeat("x", 129)} {
		if runNameOK(bad) {
			t.Errorf("runNameOK(%q) = true, want false", bad)
		}
	}
}

// TestAwaitingComplete: a coordinator whose runs are complete still owes
// an answer to every claim worker heard from within the lease TTL until a
// lease answer or a post ack has told it complete: true. Workers that only
// post are not awaited, and a claim worker quiet for a whole TTL is not
// either. The sink that streamed the final cell reads the run complete
// from its ack.
func TestAwaitingComplete(t *testing.T) {
	clock := newFakeClock()
	f, _, jobs, recs := fleetFixture(t, clock, WithFleetLeaseTTL(time.Minute))
	srv := httptest.NewServer(f)
	defer srv.Close()
	ids := CellIDs(jobs)
	claim := func(worker string) LeaseResponse {
		t.Helper()
		lr, err := ClaimCells(srv.Client(), srv.URL, "", "", worker, len(ids))
		if err != nil {
			t.Fatal(err)
		}
		return lr
	}
	awaiting := func(want int) {
		t.Helper()
		if got := f.AwaitingComplete(); got != want {
			t.Fatalf("AwaitingComplete() = %d, want %d", got, want)
		}
	}

	if lr := claim("w1"); len(lr.Cells) != len(ids) {
		t.Fatalf("w1 claimed %v, want the whole grid", lr.Cells)
	}
	awaiting(1)
	claim("w2")
	claim("w3")
	awaiting(3)
	shard, err := NewHTTPSink(srv.URL, WithSinkClient(srv.Client()), WithSinkWorker("shard"))
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Emit(recs[0]); err != nil {
		t.Fatal(err)
	}
	awaiting(3)

	sink, err := NewHTTPSink(srv.URL, WithSinkClient(srv.Client()), WithSinkWorker("w1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if sink.RunComplete() {
			t.Fatal("sink read the run complete before its final cell")
		}
		if err := sink.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.RunComplete() {
		t.Fatal("the sink that streamed the final cell did not read the run complete")
	}
	if shard.RunComplete() {
		t.Error("a sink whose only ack preceded completion reads the run complete")
	}
	awaiting(2) // w2 and w3, asleep on answers with no cells
	if lr := claim("w2"); !lr.Complete || len(lr.Cells) != 0 {
		t.Fatalf("claim after completion = %+v, want complete with no cells", lr)
	}
	awaiting(1)
	clock.Advance(time.Minute)
	awaiting(0)
}

// TestLeasePoll pins the claim worker's re-poll delay: a quarter of the
// lease TTL within [0.2 s, 5 s].
func TestLeasePoll(t *testing.T) {
	for ttl, want := range map[float64]time.Duration{
		0: 200 * time.Millisecond, 0.4: 200 * time.Millisecond, 2: 500 * time.Millisecond,
		20: 5 * time.Second, 120: 5 * time.Second,
	} {
		if got := LeasePoll(ttl); got != want {
			t.Errorf("LeasePoll(%v) = %v, want %v", ttl, got, want)
		}
	}
}
