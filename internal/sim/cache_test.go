package sim

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// memSink collects emitted records in order.
type memSink struct{ recs []CellRecord }

func (s *memSink) Emit(rec CellRecord) error { s.recs = append(s.recs, rec); return nil }
func (s *memSink) Close() error              { return nil }

// cacheTestGrid builds the ISSUE differential grid: 2 traces × 3 configs ×
// 2 fleets (2 × 2 × (3 bounds + 3 BML configs) = 24 cells). The config
// spec is returned so a test can perturb one config and re-enumerate.
func cacheTestGrid(t *testing.T, configSpec string) []SweepJob {
	t.Helper()
	trA := shardTestTrace(t, 1)
	trB, err := trA.Scale(1.5)
	if err != nil {
		t.Fatal(err)
	}
	traces := []TraceAxis{{Name: "a", Trace: trA}, {Name: "b", Trace: trB}}
	configs, err := ParseConfigs(configSpec)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Grid(traces, shardTestPlanner(t), configs, []int{0, 50})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

const cacheTestConfigs = "default,name=h13:headroom=1.3,name=oa:overhead-aware=true"

func TestDirCacheRoundTrip(t *testing.T) {
	cache, err := NewDirCache(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}
	_, recs := gridAndRecords(t)
	rec := recs[0]

	// Miss before Put.
	if _, ok, err := cache.Get(rec.ID); err != nil || ok {
		t.Fatalf("Get before Put = ok=%v, %v", ok, err)
	}

	// Put stores the record stripped of the transport flag; Get returns it.
	marked := rec
	marked.Cached = true
	if err := cache.Put(marked); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cache.Get(rec.ID)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v, %v", ok, err)
	}
	want := rec
	want.Cached = false
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached record differs:\ngot  %+v\nwant %+v", got, want)
	}

	// Re-putting is idempotent.
	if err := cache.Put(rec); err != nil {
		t.Fatal(err)
	}

	// Failed records are never stored.
	failed := recs[1]
	failed.Err = "boom"
	if err := cache.Put(failed); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cache.Get(recs[1].ID); ok {
		t.Error("failed record was cached")
	}

	// A record stored under a different schema fails loudly, not silently.
	stale := recs[2]
	stale.Schema = 1
	if err := WriteCellRecord(mustCreate(t, cachePath(cache.Dir(), stale.ID)), stale); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Get(stale.ID); err == nil {
		t.Error("schema-v1 cache entry served without error")
	}
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestWarmCacheDifferential is the tentpole anchor: a 2-trace × 3-config ×
// 2-fleet grid run cold through an empty cache, then warm through the now
// populated one, must (a) execute zero simulation jobs on the warm pass —
// every emitted record arrives marked Cached — and (b) merge cell-for-cell
// equal to the cold run (≤1e-6 J, exact counters; in fact byte-identical,
// because hits replay the stored cold-run records verbatim). A one-config
// edit must then recompute only the edited config's cells.
func TestWarmCacheDifferential(t *testing.T) {
	jobs := cacheTestGrid(t, cacheTestConfigs)
	cache, err := NewDirCache(filepath.Join(t.TempDir(), "cells"))
	if err != nil {
		t.Fatal(err)
	}

	// Cold pass: everything misses, everything is computed and written back.
	cold := &memSink{}
	stats, err := SweepStreamToCache(jobs, 2, cold, cache)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(jobs) {
		t.Fatalf("cold pass stats %+v, want 0 hits / %d misses", stats, len(jobs))
	}
	coldMerged, _, err := MergeCells(jobs, cold.recs)
	if err != nil {
		t.Fatal(err)
	}

	// Warm pass: zero simulation jobs — every record served from cache.
	warm := &memSink{}
	stats, err = SweepStreamToCache(jobs, 2, warm, cache)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != len(jobs) || stats.Misses != 0 {
		t.Fatalf("warm pass stats %+v, want %d hits / 0 misses", stats, len(jobs))
	}
	for _, rec := range warm.recs {
		if !rec.Cached {
			t.Fatalf("warm pass simulated cell %s (record not marked cached)", rec.ID)
		}
	}
	warmMerged, _, err := MergeCells(jobs, warm.recs)
	if err != nil {
		t.Fatal(err)
	}

	// Cell-for-cell equality, cold vs warm.
	if len(warmMerged) != len(coldMerged) {
		t.Fatalf("warm merged %d cells, cold %d", len(warmMerged), len(coldMerged))
	}
	for i, w := range warmMerged {
		c := coldMerged[i]
		if w.ID != c.ID {
			t.Fatalf("merged order diverged at %d: %s vs %s", i, w.ID, c.ID)
		}
		if math.Abs(w.TotalJ-c.TotalJ) > 1e-6 {
			t.Errorf("%s: warm TotalJ %v != cold %v", w.ID, w.TotalJ, c.TotalJ)
		}
		if w.Decisions != c.Decisions || w.SwitchOns != c.SwitchOns ||
			w.SwitchOffs != c.SwitchOffs || w.Skipped != c.Skipped {
			t.Errorf("%s: counters diverged: warm %+v cold %+v", w.ID, w, c)
		}
		// Stronger than the tolerance: a hit replays the stored record, so
		// modulo the transport flag the records are identical.
		w.Cached = false
		if !reflect.DeepEqual(w, c) {
			t.Errorf("%s: warm record not verbatim cold record:\nwarm %+v\ncold %+v", w.ID, w, c)
		}
	}

	// One-config edit: only the edited config's BML cells recompute. The
	// h13 headroom change alters that config's fingerprint, so its 2×2
	// BML cells get new IDs; bounds and other configs still hit.
	edited := cacheTestGrid(t, "default,name=h13:headroom=1.35,name=oa:overhead-aware=true")
	editSink := &memSink{}
	stats, err = SweepStreamToCache(edited, 2, editSink, cache)
	if err != nil {
		t.Fatal(err)
	}
	wantMisses := 4 // 2 traces × 2 fleets × the 1 edited config
	if stats.Misses != wantMisses || stats.Hits != len(edited)-wantMisses {
		t.Fatalf("one-config edit stats %+v, want %d misses / %d hits",
			stats, wantMisses, len(edited)-wantMisses)
	}
	for _, rec := range editSink.recs {
		recomputed := rec.Config == "h13" && rec.Scenario == string(ScenarioBML)
		if recomputed == rec.Cached {
			t.Errorf("%s: cached=%v, but only h13 BML cells should recompute", rec.ID, rec.Cached)
		}
	}
	if _, _, err := MergeCells(edited, editSink.recs); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPCacheAgainstIngest pins the coordinator-as-cache-server loop:
// Get misses until the coordinator holds a success, Put streams a record
// in exactly like a worker sink (journaled, deduped), and a foreign
// record is a hard Put error.
func TestHTTPCacheAgainstIngest(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	ing := NewIngest(jobs)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	cache, err := NewHTTPCache(srv.URL, WithSinkClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := cache.Get(recs[0].ID); err != nil || ok {
		t.Fatalf("Get on empty coordinator = ok=%v, %v", ok, err)
	}

	// Write-back lands on the coordinator like a worker POST...
	if err := cache.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); st.Received != 1 {
		t.Fatalf("after Put, coordinator status %+v", st)
	}
	// ...and is served back verbatim.
	got, ok, err := cache.Get(recs[0].ID)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, recs[0]) {
		t.Errorf("served record differs:\ngot  %+v\nwant %+v", got, recs[0])
	}

	// Re-putting dedups server-side, no error client-side.
	if err := cache.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); st.Duplicates != 1 {
		t.Fatalf("re-Put not deduped: %+v", ing.Status())
	}

	// A foreign record means the -cache URL points at the wrong grid's
	// coordinator: hard error, not a silent drop.
	alien := recs[1]
	alien.ID = "bml|alien|fleet=1|trace=0000000000000000:0"
	if err := cache.Put(alien); err == nil {
		t.Error("Put of foreign record succeeded")
	}

	// A bad URL fails at construction, mirroring NewHTTPSink.
	if _, err := NewHTTPCache("ftp://nope"); err == nil {
		t.Error("NewHTTPCache accepted a non-http URL")
	}
}

// TestSweepStreamToCacheNilCache pins the degenerate path: with a nil
// cache every job streams through the simulator and counts as a miss.
func TestSweepStreamToCacheNilCache(t *testing.T) {
	jobs, _ := gridAndRecords(t)
	sink := &memSink{}
	stats, err := SweepStreamToCache(jobs, 0, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(jobs) {
		t.Fatalf("nil-cache stats %+v", stats)
	}
	if len(sink.recs) != len(jobs) {
		t.Fatalf("emitted %d records, want %d", len(sink.recs), len(jobs))
	}
	if _, err := SweepStreamToCache(jobs, 0, nil, nil); err == nil {
		t.Error("nil sink accepted")
	}
}
