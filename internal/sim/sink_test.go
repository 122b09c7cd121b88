package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testRecord(id string) CellRecord {
	return CellRecord{Schema: CellSchema, ID: id, Name: "x", Scenario: "bml", FleetScale: 1,
		TraceHash: "00000000000000aa", TraceLen: 1, TotalJ: 1, Availability: 1, WallMS: 1}
}

// TestReadCellRecordsSmallBodyAllocs: a coordinator POST, a DirCache
// entry and an HTTPCache reply are usually one record of about 1 KB, so
// decoding one must not pay for a 64 KiB line buffer. A line far past the
// scanner's default size must still decode.
func TestReadCellRecordsSmallBodyAllocs(t *testing.T) {
	rec := testRecord("bml|x|fleet=1|trace=00000000000000aa:1|cfg=0")
	for d := 0; d < 40; d++ {
		rec.DailyJ = append(rec.DailyJ, 1234567.891011*float64(d+1))
	}
	var body bytes.Buffer
	if err := WriteCellRecord(&body, rec); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if recs, err := ReadCellRecords(bytes.NewReader(body.Bytes())); err != nil || len(recs) != 1 {
			t.Fatalf("ReadCellRecords = %d records, %v", len(recs), err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Errorf("decoding one %d-byte record allocates %d bytes, want at most 16 KiB", body.Len(), per)
	}

	for d := 0; d < 20000; d++ {
		rec.DailyJ = append(rec.DailyJ, float64(d))
	}
	body.Reset()
	if err := WriteCellRecord(&body, rec); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCellRecords(bytes.NewReader(body.Bytes()))
	if err != nil || len(recs) != 1 || len(recs[0].DailyJ) != len(rec.DailyJ) {
		t.Fatalf("a %d-byte record: %d records, %v", body.Len(), len(recs), err)
	}
}

// instantSink returns an HTTPSink whose backoff sleeps are recorded, not
// slept.
func instantSink(t *testing.T, base string, slept *[]time.Duration, opts ...SinkOption) *HTTPSink {
	t.Helper()
	s, err := NewHTTPSink(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s.sleep = func(d time.Duration) { *slept = append(*slept, d) }
	return s
}

func TestNewHTTPSinkValidation(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:8080", "ftp://x/", "http://"} {
		if _, err := NewHTTPSink(bad); err == nil {
			t.Errorf("NewHTTPSink(%q) unexpectedly succeeded", bad)
		}
	}
	// Every reasonable spelling of the coordinator lands on /v1/cells.
	for base, want := range map[string]string{
		"http://h:1":           "http://h:1/v1/cells",
		"http://h:1/":          "http://h:1/v1/cells",
		"http://h:1/v1":        "http://h:1/v1/cells",
		"http://h:1/v1/":       "http://h:1/v1/cells",
		"http://h:1/v1/cells":  "http://h:1/v1/cells",
		"http://h:1/v1/cells/": "http://h:1/v1/cells",
	} {
		s, err := NewHTTPSink(base)
		if err != nil || s.endpoint != want {
			t.Errorf("NewHTTPSink(%q).endpoint = %q, %v; want %q", base, s.endpoint, err, want)
		}
	}
}

// TestReadJournalToleratesTruncatedTail pins crash recovery of the
// journal itself: a coordinator killed mid-append leaves a partial final
// line, which must be dropped (that cell just stays pending) — while a
// malformed line anywhere else is corruption and still fails.
func TestReadJournalToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	recs := []CellRecord{testRecord("a"), testRecord("b")}
	for _, rec := range recs {
		if err := WriteCellRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	whole := buf.String()

	// Clean journal: everything read, no truncation.
	got, truncated, err := ReadJournal(strings.NewReader(whole))
	if err != nil || truncated || len(got) != 2 {
		t.Fatalf("clean journal: %d recs, truncated=%v, err=%v", len(got), truncated, err)
	}

	// Killed mid-append: the partial tail is dropped, the prefix survives.
	cut := whole[:len(whole)-25]
	got, truncated, err = ReadJournal(strings.NewReader(cut))
	if err != nil || !truncated || len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("truncated journal: %d recs, truncated=%v, err=%v", len(got), truncated, err)
	}

	// Garbage in the middle is corruption, not truncation.
	corrupt := "not json\n" + whole
	if _, _, err := ReadJournal(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-journal corruption unexpectedly tolerated")
	}

	// ReadCellRecords stays strict for worker output files.
	if _, err := ReadCellRecords(strings.NewReader(cut)); err == nil {
		t.Fatal("ReadCellRecords tolerated a truncated line")
	}
}

func TestHTTPSinkRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"accepted":1}`)
	}))
	defer srv.Close()
	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept, withSinkRetries(5, 10*time.Millisecond))
	if err := s.Emit(testRecord("a")); err != nil {
		t.Fatalf("Emit after transient failures: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	// Exponential backoff: 10ms then 20ms.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff schedule = %v", slept)
	}
}

func TestHTTPSinkGivesUpAfterRetryBudget(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept, withSinkRetries(2, time.Millisecond))
	err := s.Emit(testRecord("a"))
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	// The batch is retained, so a recovered coordinator still gets the cell.
	if len(s.batch) != 1 {
		t.Errorf("failed batch discarded: %d records buffered", len(s.batch))
	}
}

func TestHTTPSinkFailsFastOnPermanentRejection(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad cell batch", http.StatusBadRequest)
	}))
	defer srv.Close()
	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept)
	err := s.Emit(testRecord("a"))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want rejection", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Errorf("4xx retried: %d calls, %d sleeps", calls.Load(), len(slept))
	}
}

func TestHTTPSinkFailsFastOnForeignRecords(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, `{"accepted":0,"unknown":1,"first_unknown":"bml|alien|fleet=1|trace=0:0"}`)
	}))
	defer srv.Close()
	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept)
	err := s.Emit(testRecord("a"))
	if err == nil || !strings.Contains(err.Error(), "foreign") || !strings.Contains(err.Error(), "alien") {
		t.Fatalf("err = %v, want foreign-grid rejection naming the record", err)
	}
	if calls.Load() != 1 {
		t.Errorf("foreign rejection retried: %d calls", calls.Load())
	}
}

func TestHTTPSinkBatchingAndCloseFlush(t *testing.T) {
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		bodies = append(bodies, buf.Bytes())
		fmt.Fprint(w, `{"accepted":1}`)
	}))
	defer srv.Close()
	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept, withSinkBatch(2))
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Emit(testRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	if len(bodies) != 1 {
		t.Fatalf("before Close: %d POSTs, want 1 (full batch of 2)", len(bodies))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 {
		t.Fatalf("after Close: %d POSTs, want 2 (Close flushes the remainder)", len(bodies))
	}
	if got := bytes.Count(bodies[0], []byte("\n")); got != 2 {
		t.Errorf("first POST carries %d records, want 2", got)
	}
	if got := bytes.Count(bodies[1], []byte("\n")); got != 1 {
		t.Errorf("flush POST carries %d records, want 1", got)
	}
}

// TestNetworkKillResumeMatchesSweep is the tentpole differential: a grid
// run as two workers streaming over HTTP to an Ingest coordinator — one
// worker dying mid-shard — then resumed by re-dispatching exactly the
// coordinator's pending set, merges cell-for-cell equal to a single
// in-process Sweep (≤1e-6 J, exact counters). It also proves the journal
// alone reconstructs the coordinator: a fresh Ingest primed from the
// journal bytes reports the grid complete.
func TestNetworkKillResumeMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker differential sweep")
	}
	tr := shardTestTrace(t, 2)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, []int{0, 25})
	if err != nil {
		t.Fatal(err)
	}

	single := sweepAll(jobs, 0)
	want := make(map[string]CellRecord, len(single))
	for _, r := range single {
		if r.Err != nil {
			t.Fatalf("single sweep cell %s: %v", r.Job.Name, r.Err)
		}
		rec := NewCellRecord(r)
		want[rec.ID] = rec
	}

	var journal bytes.Buffer
	ing := NewIngest(jobs, WithJournal(&journal))
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	shard0, err := ShardJobs(jobs, ShardSpec{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := ShardJobs(jobs, ShardSpec{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(shard0) < 2 {
		// Kill the worker whose shard has at least two cells so death is
		// genuinely mid-shard.
		shard0, shard1 = shard1, shard0
	}

	// Worker 0 "crashes" after its first cell: the stream aborts, nothing
	// else is emitted. Because the sink flushes per cell, that one cell is
	// already durable on the coordinator — like a killed process whose
	// completed POSTs survived.
	killed := errors.New("simulated worker death")
	sink0, err := NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	err = SweepStream(shard0, 1, func(r SweepResult) error {
		if err := sink0.Emit(NewCellRecord(r)); err != nil {
			return err
		}
		if emitted++; emitted >= 1 {
			return killed
		}
		return nil
	})
	if !errors.Is(err, killed) {
		t.Fatalf("worker 0 stream error = %v, want simulated death", err)
	}

	// Worker 1 completes its shard normally.
	sink1, err := NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepStreamToCache(shard1, 2, sink1, nil); err != nil {
		t.Fatalf("worker 1: %v", err)
	}

	st := ing.Status()
	if st.Complete || st.Received != 1+len(shard1) {
		t.Fatalf("after kill: status %+v, want %d received and incomplete", st, 1+len(shard1))
	}

	// Resume: the pending set is a pure set difference on canonical IDs;
	// re-dispatch exactly those cells through a fresh worker.
	pending := ing.Pending()
	if len(pending) != len(shard0)-1 {
		t.Fatalf("pending %d cells, want %d", len(pending), len(shard0)-1)
	}
	pendingSet := map[string]bool{}
	for _, id := range pending {
		pendingSet[id] = true
	}
	var redispatch []SweepJob
	for _, j := range jobs {
		if pendingSet[CellID(j)] {
			redispatch = append(redispatch, j)
		}
	}
	sink2, err := NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepStreamToCache(redispatch, 2, sink2, nil); err != nil {
		t.Fatalf("resume worker: %v", err)
	}

	select {
	case <-ing.Done():
	default:
		t.Fatalf("grid not complete after resume: %+v", ing.Status())
	}

	// The merged grid is cell-for-cell the single-process sweep.
	merged, stats, err := MergeCells(jobs, ing.Records())
	if err != nil {
		t.Fatalf("merge: %v (stats %+v)", err, stats)
	}
	for i, got := range merged {
		if got.ID != CellID(jobs[i]) {
			t.Fatalf("merged[%d] = %s, want grid order %s", i, got.ID, CellID(jobs[i]))
		}
		w := want[got.ID]
		if math.Abs(got.TotalJ-w.TotalJ) > 1e-6 {
			t.Errorf("%s: TotalJ %v vs %v (Δ %g)", got.ID, got.TotalJ, w.TotalJ, got.TotalJ-w.TotalJ)
		}
		for d := range got.DailyJ {
			if math.Abs(got.DailyJ[d]-w.DailyJ[d]) > 1e-6 {
				t.Errorf("%s day %d: %v vs %v", got.ID, d+1, got.DailyJ[d], w.DailyJ[d])
			}
		}
		if got.Decisions != w.Decisions || got.SwitchOns != w.SwitchOns ||
			got.SwitchOffs != w.SwitchOffs || got.Skipped != w.Skipped {
			t.Errorf("%s: counters (%d,%d,%d,%d) vs (%d,%d,%d,%d)", got.ID,
				got.Decisions, got.SwitchOns, got.SwitchOffs, got.Skipped,
				w.Decisions, w.SwitchOns, w.SwitchOffs, w.Skipped)
		}
		if got.Availability != w.Availability || got.LostRequests != w.LostRequests {
			t.Errorf("%s: QoS %v/%v vs %v/%v", got.ID,
				got.Availability, got.LostRequests, w.Availability, w.LostRequests)
		}
	}

	// The journal alone rebuilds the coordinator: prime a fresh Ingest
	// from the journal bytes and the grid is already complete.
	replayed, err := ReadCellRecords(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(jobs) {
		t.Fatalf("journal holds %d records, want %d (duplicates are not journaled)", len(replayed), len(jobs))
	}
	fresh := NewIngest(jobs)
	if _, err := fresh.Prime(replayed); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Status(); !st.Complete {
		t.Errorf("journal replay incomplete: %+v", st)
	}
}

// TestHTTPSinkRetryAfterDroppedResponseIsHarmless pins the half-written
// batch case: the coordinator receives and journals a full POSTed batch,
// but the connection dies before the ack reaches the worker. The sink
// sees a network error and re-POSTs the whole batch — a double-POST of
// records the coordinator already journaled. First-success-wins dedup
// must make the retry a no-op: duplicates are counted but never journaled
// and never change state, so the merge equals a clean run and the journal
// still holds exactly one line per cell.
func TestHTTPSinkRetryAfterDroppedResponseIsHarmless(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, []int{0, 25})
	if err != nil {
		t.Fatal(err)
	}

	// The clean reference: one in-process sweep.
	want := make(map[string]CellRecord, len(jobs))
	for _, r := range sweepAll(jobs, 0) {
		if r.Err != nil {
			t.Fatalf("reference sweep cell %s: %v", r.Job.Name, r.Err)
		}
		rec := NewCellRecord(r)
		want[rec.ID] = rec
	}

	var journal bytes.Buffer
	ing := NewIngest(jobs, WithJournal(&journal))
	coord := oneRunFleet(t, ing)
	// The flaky front end: the first two POSTs are fully processed by the
	// coordinator (journaled, folded in) but the connection is severed
	// before any response bytes go out — the worker-visible failure mode of
	// a coordinator-side ack lost in flight.
	var drops atomic.Int32
	drops.Store(2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && drops.Add(-1) >= 0 {
			rr := httptest.NewRecorder()
			coord.ServeHTTP(rr, r)
			if rr.Code != http.StatusOK {
				t.Errorf("coordinator failed the dropped batch: %d %s", rr.Code, rr.Body)
			}
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		coord.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept, withSinkBatch(3), withSinkRetries(5, time.Millisecond))
	if _, err := SweepStreamToCache(jobs, 2, s, nil); err != nil {
		t.Fatalf("stream through flaky coordinator: %v", err)
	}

	st := ing.Status()
	if !st.Complete {
		t.Fatalf("grid incomplete after flaky run: %+v", st)
	}
	if st.Duplicates == 0 {
		t.Fatal("no duplicates recorded — the dropped-ack double-POST never happened, test proves nothing")
	}
	if len(slept) == 0 {
		t.Fatal("sink never retried — connection drops were not exercised")
	}

	// Merge equals the clean run, cell for cell.
	merged, stats, err := MergeCells(jobs, ing.Records())
	if err != nil {
		t.Fatalf("merge: %v (stats %+v)", err, stats)
	}
	for _, got := range merged {
		w := want[got.ID]
		if math.Abs(got.TotalJ-w.TotalJ) > 1e-6 {
			t.Errorf("%s: TotalJ %v vs clean %v", got.ID, got.TotalJ, w.TotalJ)
		}
		if got.Decisions != w.Decisions || got.SwitchOns != w.SwitchOns ||
			got.SwitchOffs != w.SwitchOffs || got.Skipped != w.Skipped {
			t.Errorf("%s: counters diverged from clean run", got.ID)
		}
	}

	// The journal never saw the duplicates: one line per cell, and a
	// replay rebuilds a complete coordinator.
	replayed, err := ReadCellRecords(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(jobs) {
		t.Fatalf("journal holds %d records, want %d (duplicates must not be journaled)", len(replayed), len(jobs))
	}
	fresh := NewIngest(jobs)
	if _, err := fresh.Prime(replayed); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Status(); !st.Complete {
		t.Errorf("journal replay incomplete: %+v", st)
	}
}

func TestSweepStreamToFlushesOnCancel(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink broke")
	s := &countingSink{failAt: 2, err: sentinel}
	_, err = SweepStreamToCache(jobs, 1, s, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if !s.closed {
		t.Error("sink not closed after stream error — buffered records would be dropped")
	}
}

type countingSink struct {
	n      int
	failAt int
	err    error
	closed bool
}

func (s *countingSink) Emit(CellRecord) error {
	s.n++
	if s.failAt > 0 && s.n >= s.failAt {
		return s.err
	}
	return nil
}

func (s *countingSink) Close() error {
	s.closed = true
	return nil
}
