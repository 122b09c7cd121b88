package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestMergeCellsMatchesIngest holds the two record consumers — the file
// merge (MergeCells) and the coordinator (Ingest, primed from a journal
// prefix and fed the rest live) — to one first-success-wins rule. Seeded
// random record sequences mix duplicate successes, failure→success,
// success→failure, foreign IDs and cache hits; both consumers must keep
// the same record per cell (grid order, Cached flags included) and agree
// on every counter against an independent reference model. The two
// Duplicates counters differ on purpose: MergeStats counts a success that
// replaces a failure as a duplicate, IngestStatus (the /v1/status JSON)
// does not.
func TestMergeCellsMatchesIngest(t *testing.T) {
	tr := shardTestTrace(t, 1)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, shardTestPlanner(t), nil, []int{0, 25})
	if err != nil {
		t.Fatal(err)
	}
	ids := CellIDs(jobs)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := randomRecordSequence(rng, ids)

		// Reference model: the rule written out longhand.
		best := map[string]CellRecord{}
		var wantMergeDups, wantIngestDups, wantUnknown int
		for _, rec := range seq {
			if !containsID(ids, rec.ID) {
				wantUnknown++
				continue
			}
			prev, seen := best[rec.ID]
			switch {
			case !seen:
				best[rec.ID] = rec
			case prev.Err != "" && rec.Err == "":
				best[rec.ID] = rec
				wantMergeDups++
			default:
				wantMergeDups++
				wantIngestDups++
			}
		}
		wantOut := []CellRecord{}
		var wantMissing, wantFailed, wantPending []string
		wantCached := 0
		for _, id := range ids {
			rec, ok := best[id]
			switch {
			case !ok:
				wantMissing = append(wantMissing, id)
				wantPending = append(wantPending, id)
			case rec.Err != "":
				wantFailed = append(wantFailed, id)
				wantPending = append(wantPending, id)
			default:
				wantOut = append(wantOut, rec)
				if rec.Cached {
					wantCached++
				}
			}
		}

		out, stats, mergeErr := MergeCells(jobs, seq)
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("seed %d: MergeCells kept the wrong records:\n got %+v\nwant %+v", seed, out, wantOut)
		}
		if stats.Records != len(seq) || stats.Duplicates != wantMergeDups ||
			!reflect.DeepEqual(stats.Missing, wantMissing) || !reflect.DeepEqual(stats.Failed, wantFailed) ||
			len(stats.Unknown) != wantUnknown {
			t.Fatalf("seed %d: MergeStats %+v, want records %d dups %d missing %v failed %v unknown %d",
				seed, stats, len(seq), wantMergeDups, wantMissing, wantFailed, wantUnknown)
		}
		if (mergeErr == nil) != stats.Complete() {
			t.Fatalf("seed %d: merge error %v with Complete() = %v", seed, mergeErr, stats.Complete())
		}

		ing := NewIngest(jobs)
		split := rng.Intn(len(seq) + 1)
		if _, err := ing.Prime(seq[:split]); err != nil {
			t.Fatal(err)
		}
		for _, rec := range seq[split:] {
			if err := ing.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		ingOut := []CellRecord{}
		for _, rec := range ing.Records() {
			if rec.Err == "" {
				ingOut = append(ingOut, rec)
			}
		}
		if !reflect.DeepEqual(ingOut, wantOut) {
			t.Fatalf("seed %d (split %d): Ingest kept different records than MergeCells:\n got %+v\nwant %+v", seed, split, ingOut, wantOut)
		}
		if got := ing.Pending(); !reflect.DeepEqual(got, wantPending) {
			t.Fatalf("seed %d: Pending %v, want %v", seed, got, wantPending)
		}
		st := ing.Status()
		want := IngestStatus{
			Total:      len(ids),
			Received:   len(wantOut),
			Pending:    len(wantPending),
			Failed:     len(wantFailed),
			Duplicates: wantIngestDups,
			Unknown:    wantUnknown,
			Cached:     wantCached,
			Complete:   len(wantPending) == 0,
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("seed %d (split %d): IngestStatus %+v, want %+v", seed, split, st, want)
		}
		select {
		case <-ing.Done():
			if !st.Complete {
				t.Fatalf("seed %d: Done fired with %d cells pending", seed, st.Pending)
			}
		default:
			if st.Complete {
				t.Fatalf("seed %d: grid complete but Done never fired", seed)
			}
		}

		// The coordinator's final report is MergeCells over Ingest.Records():
		// the same cells, whichever consumer saw the raw sequence.
		final, _, _ := MergeCells(jobs, ing.Records())
		if !reflect.DeepEqual(final, wantOut) {
			t.Fatalf("seed %d: MergeCells(Ingest.Records()) differs from the direct merge", seed)
		}
	}
}

// randomRecordSequence draws a record stream over ids: each step picks a
// grid cell (or, sometimes, a foreign one) and emits a success, a failure
// or a cache hit for it, so repeats produce every duplicate shape the
// first-success-wins rule distinguishes. Payloads differ per record, so
// keeping the wrong one of two successes is visible.
func randomRecordSequence(rng *rand.Rand, ids []string) []CellRecord {
	n := rng.Intn(3 * len(ids))
	seq := make([]CellRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := CellRecord{Schema: CellSchema, TotalJ: float64(i + 1), WallMS: rng.Float64()}
		if rng.Intn(10) == 0 {
			rec.ID = fmt.Sprintf("bml|foreign-%d|fleet=1|trace=0000000000000000:0|cfg=0000000000000000", rng.Intn(3))
		} else {
			rec.ID = ids[rng.Intn(len(ids))]
		}
		switch rng.Intn(4) {
		case 0:
			rec.Err = "sim: injected failure"
			rec.TotalJ = 0
		case 1:
			rec.Cached = true
		}
		seq = append(seq, rec)
	}
	return seq
}

func containsID(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
