package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// gridAndRecords builds a small real grid and its completed records,
// recs[i] being the record of jobs[i]. SweepStream emits cells in
// completion order, so the records are sorted back into grid order.
func gridAndRecords(t *testing.T) ([]SweepJob, []CellRecord) {
	t.Helper()
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]CellRecord, len(jobs))
	err = SweepStream(jobs, 0, func(r SweepResult) error {
		recs[r.Index] = NewCellRecord(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs, recs
}

// ingestFixture builds the grid plus its coordinator.
func ingestFixture(t *testing.T, journal *bytes.Buffer) (*Ingest, []SweepJob, []CellRecord) {
	t.Helper()
	jobs, recs := gridAndRecords(t)
	var jw io.Writer
	if journal != nil {
		jw = journal
	}
	return NewIngest(jobs, WithJournal(jw)), jobs, recs
}

func postCells(t *testing.T, srv *httptest.Server, recs ...CellRecord) IngestResponse {
	t.Helper()
	var body bytes.Buffer
	for _, rec := range recs {
		if err := WriteCellRecord(&body, rec); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/cells", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cells = %s", resp.Status)
	}
	var ack IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

func getStatus(t *testing.T, srv *httptest.Server) IngestStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st IngestStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestIngestHTTPLifecycle(t *testing.T) {
	var journal bytes.Buffer
	ing, jobs, recs := ingestFixture(t, &journal)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	// Empty coordinator: everything pending.
	st := getStatus(t, srv)
	if st.Total != len(jobs) || st.Pending != len(jobs) || st.Complete {
		t.Fatalf("initial status %+v", st)
	}

	// First record accepted and journaled.
	ack := postCells(t, srv, recs[0])
	if ack.Accepted != 1 || ack.Pending != len(jobs)-1 || ack.Complete {
		t.Fatalf("first ack %+v", ack)
	}

	// Re-posting the same cell is a duplicate: acknowledged, not journaled.
	ack = postCells(t, srv, recs[0])
	if ack.Accepted != 0 || ack.Duplicates != 1 {
		t.Fatalf("duplicate ack %+v", ack)
	}

	// Pending lists exactly the outstanding IDs in grid order.
	resp, err := http.Get(srv.URL + "/v1/pending")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	lines := strings.Fields(raw)
	if len(lines) != len(jobs)-1 {
		t.Fatalf("pending lists %d IDs, want %d:\n%s", len(lines), len(jobs)-1, raw)
	}
	for i, id := range CellIDs(jobs)[1:] {
		if lines[i] != id {
			t.Errorf("pending[%d] = %s, want %s", i, lines[i], id)
		}
	}

	// Remaining records complete the grid.
	ack = postCells(t, srv, recs[1:]...)
	if !ack.Complete || ack.Pending != 0 {
		t.Fatalf("final ack %+v", ack)
	}
	select {
	case <-ing.Done():
	default:
		t.Fatal("Done not closed on completion")
	}

	// Journal holds one line per cell: duplicates were never written.
	replayed, err := ReadCellRecords(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(jobs) {
		t.Fatalf("journal holds %d records, want %d", len(replayed), len(jobs))
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.String(), err
}

func TestIngestFailedRecordStaysPendingUntilSuccess(t *testing.T) {
	ing, jobs, recs := ingestFixture(t, nil)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	failed := recs[0]
	failed.Err = "boom"
	ack := postCells(t, srv, failed)
	if ack.Accepted != 1 {
		t.Fatalf("failed record not accepted: %+v", ack)
	}
	st := getStatus(t, srv)
	if st.Received != 0 || st.Failed != 1 || st.Pending != len(jobs) {
		t.Fatalf("status after failure %+v", st)
	}
	// The failed cell is still in the pending set, so a re-dispatch
	// includes it; its successful re-run heals it.
	if p := ing.Pending(); len(p) != len(jobs) {
		t.Fatalf("pending %d, want %d (failed cell must stay pending)", len(p), len(jobs))
	}
	ack = postCells(t, srv, recs[0])
	if ack.Accepted != 1 {
		t.Fatalf("healing success not accepted: %+v", ack)
	}
	if st := getStatus(t, srv); st.Received != 1 || st.Failed != 0 {
		t.Fatalf("status after heal %+v", st)
	}
}

func TestIngestRejectsForeignAndMalformed(t *testing.T) {
	ing, _, recs := ingestFixture(t, nil)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	alien := recs[0]
	alien.ID = "bml|alien|fleet=1|trace=0000000000000000:0"
	ack := postCells(t, srv, alien, recs[0])
	if ack.Unknown != 1 || ack.FirstUnknown != alien.ID || ack.Accepted != 1 {
		t.Fatalf("foreign ack %+v", ack)
	}
	if st := getStatus(t, srv); st.Unknown != 1 {
		t.Fatalf("status %+v", st)
	}

	resp, err := http.Post(srv.URL+"/v1/cells", "application/x-ndjson",
		strings.NewReader("not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: %s (%s)", resp.Status, strings.TrimSpace(body))
	}
}

func TestIngestRoutesAndMethods(t *testing.T) {
	ing, _, _ := ingestFixture(t, nil)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	if resp, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/cells", nil); err != nil {
		t.Fatal(err)
	} else if res, err := http.DefaultClient.Do(resp); err != nil {
		t.Fatal(err)
	} else {
		readAll(res)
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE /v1/cells = %s, want 405", res.Status)
		}
	}
	if resp, err := http.Post(srv.URL+"/v1/status", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		readAll(resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/status = %s, want 405", resp.Status)
		}
	}
	resp, err := http.Get(srv.URL + "/v2/cells")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "schema-versioned") {
		t.Errorf("unknown path = %s (%s), want 404 naming the /v1/ API", resp.Status, strings.TrimSpace(body))
	}
}

// TestIngestServesCellsByID pins the cache-server read path: GET
// /v1/cells?id= serves exactly the journaled success (Cached stripped),
// 404s cells that are uncovered, failed, or foreign, and a success
// healing a failure flips the same URL from 404 to 200.
func TestIngestServesCellsByID(t *testing.T) {
	ing, jobs, recs := ingestFixture(t, nil)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	ids := CellIDs(jobs)
	get := func(id string) (int, []CellRecord) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/cells?id=" + url.QueryEscape(id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, nil
		}
		got, err := ReadCellRecords(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, got
	}

	// Uncovered cell: miss.
	if code, _ := get(ids[0]); code != http.StatusNotFound {
		t.Fatalf("GET uncovered cell = %d, want 404", code)
	}

	// Failed record: still a miss — a failure is not a cacheable result.
	failed := recs[0]
	failed.Err = "boom"
	postCells(t, srv, failed)
	if code, _ := get(ids[0]); code != http.StatusNotFound {
		t.Fatalf("GET failed cell = %d, want 404", code)
	}

	// Success (arriving marked cached, as a warm worker would stream it):
	// served verbatim with the transport flag stripped.
	healed := recs[0]
	healed.Cached = true
	postCells(t, srv, healed)
	code, got := get(ids[0])
	if code != http.StatusOK || len(got) != 1 {
		t.Fatalf("GET healed cell = %d with %d records, want 200 with 1", code, len(got))
	}
	want := recs[0]
	want.Cached = false
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("served record differs from posted success:\ngot  %+v\nwant %+v", got[0], want)
	}

	// Foreign ID: miss, not an error.
	if code, _ := get("bml|alien|fleet=1|trace=0000000000000000:0"); code != http.StatusNotFound {
		t.Fatalf("GET foreign cell = %d, want 404", code)
	}
}

// failingWriter fails every write until fixed.
type failingWriter struct {
	fixed bool
	buf   bytes.Buffer
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if !w.fixed {
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}

func TestIngestJournalFailureKeepsRecordRetryable(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	jw := &failingWriter{}
	ing := NewIngest(jobs, WithJournal(jw))
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	// A journal write failure is a 5xx: the record must NOT be folded in,
	// so the acknowledged set never exceeds the journal.
	var body bytes.Buffer
	WriteCellRecord(&body, recs[0])
	resp, err := http.Post(srv.URL+"/v1/cells", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("journal failure = %s, want 500", resp.Status)
	}
	if st := ing.Status(); st.Received != 0 {
		t.Fatalf("unjournaled record folded in: %+v", st)
	}
	// The unjournaled cell must still be re-dispatchable: /v1/pending lists
	// it (and every other cell) — a record the journal never saw cannot
	// have left the pending set, or a crash before the retry would lose it.
	presp, err := http.Get(srv.URL + "/v1/pending")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(presp)
	pending := strings.Fields(raw)
	if len(pending) != len(jobs) {
		t.Fatalf("/v1/pending lists %d cells after journal failure, want all %d", len(pending), len(jobs))
	}
	if pending[0] != recs[0].ID {
		t.Fatalf("/v1/pending missing the unjournaled cell %s:\n%s", recs[0].ID, raw)
	}

	// The client's retry succeeds once the journal recovers.
	jw.fixed = true
	ack := postCells(t, srv, recs[0])
	if ack.Accepted != 1 {
		t.Fatalf("retry after journal recovery: %+v", ack)
	}
	replayed, err := ReadCellRecords(bytes.NewReader(jw.buf.Bytes()))
	if err != nil || len(replayed) != 1 {
		t.Fatalf("journal after recovery: %d records, %v", len(replayed), err)
	}
}

// syncFailingWriter persists writes but fails fsync until fixed —
// modeling an *os.File journal on a full disk whose page-cache writes
// succeed.
type syncFailingWriter struct {
	fixed bool
	buf   bytes.Buffer
}

func (w *syncFailingWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *syncFailingWriter) Sync() error {
	if !w.fixed {
		return errors.New("fsync: no space left on device")
	}
	return nil
}

// TestIngestSyncFailureDefersAckAndDone pins the durability ordering: a
// batch whose records were folded in but whose journal sync failed is not
// acknowledged (5xx) and does not close Done — and the worker's retry of
// the same (now all-duplicate) batch re-attempts the sync, so the grid
// only completes once the journal is actually durable.
func TestIngestSyncFailureDefersAckAndDone(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	jw := &syncFailingWriter{}
	ing := NewIngest(jobs, WithJournal(jw))
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	var body bytes.Buffer
	for _, rec := range recs {
		if err := WriteCellRecord(&body, rec); err != nil {
			t.Fatal(err)
		}
	}
	payload := body.String()
	resp, err := http.Post(srv.URL+"/v1/cells", "application/x-ndjson", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sync failure = %s, want 500", resp.Status)
	}
	select {
	case <-ing.Done():
		t.Fatal("Done closed before the journal was durable")
	default:
	}

	// The retry dedups every record, but must still sync before acking.
	jw.fixed = true
	resp, err = http.Post(srv.URL+"/v1/cells", "application/x-ndjson", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after sync recovery = %s, want 200", resp.Status)
	}
	select {
	case <-ing.Done():
	default:
		t.Fatal("Done not closed after the journal synced")
	}
	replayed, err := ReadCellRecords(bytes.NewReader(jw.buf.Bytes()))
	if err != nil || len(replayed) != len(jobs) {
		t.Fatalf("journal holds %d records, %v; want %d", len(replayed), err, len(jobs))
	}
}

func TestIngestPrimeMatchesLiveState(t *testing.T) {
	ing, jobs, recs := ingestFixture(t, nil)
	// Live: fold some records, one duplicated, one foreign.
	srv := httptest.NewServer(oneRunFleet(t, ing))
	alien := recs[0]
	alien.ID = "bml|alien|fleet=1|trace=0000000000000000:0"
	postCells(t, srv, recs[0], recs[1], recs[0], alien)
	srv.Close()

	// Prime: a fresh coordinator fed the same records directly.
	fresh := NewIngest(jobs)
	if _, err := fresh.Prime([]CellRecord{recs[0], recs[1], recs[0], alien}); err != nil {
		t.Fatal(err)
	}
	live, primed := ing.Status(), fresh.Status()
	// The liveness view is transport-level (who POSTed, when), so it is
	// the one part of the snapshot a journal replay cannot reproduce.
	live.Remotes, primed.Remotes = nil, nil
	if !reflect.DeepEqual(live, primed) {
		t.Errorf("live %+v != primed %+v", live, primed)
	}
	if got, want := len(fresh.Pending()), len(jobs)-2; got != want {
		t.Errorf("primed pending %d, want %d", got, want)
	}
}
