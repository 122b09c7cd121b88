package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/trace"
)

func shardTestTrace(t testing.TB, days int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = days
	cfg.Seed = 4242
	cfg.PeakRate = 3000
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.Quantize(300); err != nil {
		t.Fatal(err)
	}
	return tr
}

func shardTestPlanner(t testing.TB) *bml.Planner {
	t.Helper()
	p, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseShard(t *testing.T) {
	valid := map[string]ShardSpec{
		"0/1":   {0, 1},
		"0/4":   {0, 4},
		"3/4":   {3, 4},
		" 2/ 3": {2, 3},
	}
	for in, want := range valid {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	invalid := []string{"", "0/0", "1/1", "4/4", "-1/3", "1/-3", "2/1", "x/2", "1/y", "1", "1//2", "0.5/2"}
	for _, in := range invalid {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) unexpectedly succeeded", in)
		}
	}
}

func TestShardJobsPartition(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, []int{0, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("grid size = %d, want 12", len(jobs))
	}
	for _, n := range []int{1, 2, 3, 5, 7} {
		seen := map[string]int{}
		total := 0
		for i := 0; i < n; i++ {
			shard, err := ShardJobs(jobs, ShardSpec{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			again, err := ShardJobs(jobs, ShardSpec{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			if len(shard) != len(again) {
				t.Fatalf("shard %d/%d not stable across calls", i, n)
			}
			for _, j := range shard {
				seen[CellID(j)]++
				total++
			}
		}
		if total != len(jobs) {
			t.Errorf("N=%d: shards cover %d cells, want %d", n, total, len(jobs))
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("N=%d: cell %s appears in %d shards", n, id, c)
			}
		}
	}
	if _, err := ShardJobs(jobs, ShardSpec{Index: 2, Count: 2}); err == nil {
		t.Error("out-of-range spec unexpectedly accepted")
	}
}

func TestCellIDStableAndDiscriminating(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	j := SweepJob{Name: "bml/fleet=0", Trace: tr, Planner: planner, Scenario: ScenarioBML}
	if CellID(j) != CellID(j) {
		t.Fatal("CellID not deterministic")
	}
	// FleetScale 0 and 1 are the same physics, so the same cell.
	j1 := j
	j1.FleetScale = 1
	if CellID(j) != CellID(j1) {
		t.Error("FleetScale 0 and 1 should canonicalize to the same cell ID")
	}
	j2 := j
	j2.FleetScale = 2.5
	if CellID(j) == CellID(j2) {
		t.Error("different fleet scales must produce different cell IDs")
	}
	j3 := j
	j3.Scenario = ScenarioLowerBound
	if CellID(j) == CellID(j3) {
		t.Error("different scenarios must produce different cell IDs")
	}
	other, err := tr.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	j4 := j
	j4.Trace = other
	if CellID(j) == CellID(j4) {
		t.Error("different traces must produce different cell IDs")
	}
	// Equal contents fingerprint equally even across distinct allocations
	// (what makes worker and coordinator agree across processes).
	clone := trace.MustNew(tr.Values())
	if TraceFingerprint(tr) != TraceFingerprint(clone) {
		t.Error("equal traces must fingerprint equally")
	}
}

// TestShardedStreamMergeMatchesSweep is the acceptance property test: a
// grid run as N independent shards, streamed to JSONL and merged, is
// cell-for-cell identical to one in-process Sweep (energies to ≤1e-6 J,
// counters exact).
func TestShardedStreamMergeMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard differential sweep")
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

	const shards = 3
	var streams bytes.Buffer
	for i := 0; i < shards; i++ {
		shard, err := ShardJobs(jobs, ShardSpec{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = SweepStream(shard, 2, func(r SweepResult) error {
			return WriteCellRecord(&buf, NewCellRecord(r))
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		streams.Write(buf.Bytes())
	}

	records, err := ReadCellRecords(&streams)
	if err != nil {
		t.Fatal(err)
	}
	merged, stats, err := MergeCells(jobs, records)
	if err != nil {
		t.Fatalf("merge: %v (stats %+v)", err, stats)
	}
	if stats.Duplicates != 0 || len(merged) != len(jobs) {
		t.Fatalf("merge stats %+v, merged %d cells, want %d", stats, len(merged), len(jobs))
	}
	for i, got := range merged {
		if got.ID != CellID(jobs[i]) {
			t.Fatalf("merged[%d] = %s, want grid order %s", i, got.ID, CellID(jobs[i]))
		}
		w := want[got.ID]
		if math.Abs(got.TotalJ-w.TotalJ) > 1e-6 {
			t.Errorf("%s: TotalJ %v vs %v (Δ %g)", got.ID, got.TotalJ, w.TotalJ, got.TotalJ-w.TotalJ)
		}
		if len(got.DailyJ) != len(w.DailyJ) {
			t.Fatalf("%s: daily length %d vs %d", got.ID, len(got.DailyJ), len(w.DailyJ))
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
}

func TestMergeDetectsIncompleteAndForeign(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var records []CellRecord
	err = SweepStream(jobs, 0, func(r SweepResult) error {
		records = append(records, NewCellRecord(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Dropping one cell must fail the merge and name the missing cell.
	dropped := records[1:]
	_, stats, err := MergeCells(jobs, dropped)
	if err == nil {
		t.Fatal("incomplete merge unexpectedly succeeded")
	}
	if len(stats.Missing) != 1 || stats.Missing[0] != records[0].ID {
		t.Errorf("stats.Missing = %v, want [%s]", stats.Missing, records[0].ID)
	}

	// A record from another grid must be flagged as foreign.
	foreign := append([]CellRecord{}, records...)
	alien := records[0]
	alien.ID = "bml|alien|fleet=1|trace=0000000000000000:0"
	foreign = append(foreign, alien)
	_, stats, err = MergeCells(jobs, foreign)
	if err == nil || len(stats.Unknown) != 1 {
		t.Errorf("foreign record not rejected: err=%v stats=%+v", err, stats)
	}

	// A failed cell with no successful re-run fails the merge...
	failed := append([]CellRecord{}, records...)
	failed[2].Err = "boom"
	_, stats, err = MergeCells(jobs, failed)
	if err == nil || len(stats.Failed) != 1 {
		t.Errorf("failed cell not detected: err=%v stats=%+v", err, stats)
	}

	// ...but a successful re-run of the same cell heals it (dedup prefers
	// success), and plain duplicates are counted.
	healed := append(append([]CellRecord{}, failed...), records[2], records[3])
	merged, stats, err := MergeCells(jobs, healed)
	if err != nil {
		t.Fatalf("healed merge failed: %v (stats %+v)", err, stats)
	}
	if stats.Duplicates != 2 || len(merged) != len(jobs) {
		t.Errorf("healed merge stats %+v, merged %d", stats, len(merged))
	}
	for i, rec := range merged {
		if rec.Err != "" || rec.ID != CellID(jobs[i]) {
			t.Errorf("merged[%d] = %+v", i, rec)
		}
	}
}

// TestMergeCellsDuplicateSuccessKeepsFirst pins the canonical dedup
// ordering: when the same cell succeeds twice (a re-run whose wall time —
// an environmental measurement, not part of the cell's identity —
// differs), the first success in input order wins, so the merged grid is
// deterministic no matter how many times shards were retried.
func TestMergeCellsDuplicateSuccessKeepsFirst(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var records []CellRecord
	err = SweepStream(jobs, 0, func(r SweepResult) error {
		records = append(records, NewCellRecord(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rerun := records[0]
	rerun.WallMS = records[0].WallMS + 12345 // same cell, different environment
	withRerun := append(append([]CellRecord{}, records...), rerun)
	merged, stats, err := MergeCells(jobs, withRerun)
	if err != nil {
		t.Fatalf("merge: %v (stats %+v)", err, stats)
	}
	if stats.Duplicates != 1 {
		t.Errorf("stats.Duplicates = %d, want 1", stats.Duplicates)
	}
	for _, rec := range merged {
		if rec.ID == records[0].ID && rec.WallMS != records[0].WallMS {
			t.Errorf("later duplicate success replaced the first: wall %v, want %v",
				rec.WallMS, records[0].WallMS)
		}
	}

	// Ordering is canonical, not luck: reversing so the re-run comes first
	// makes the re-run the winner.
	reversed := append([]CellRecord{rerun}, records...)
	merged, _, err = MergeCells(jobs, reversed)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range merged {
		if rec.ID == rerun.ID && rec.WallMS != rerun.WallMS {
			t.Errorf("first-in-input success did not win: wall %v, want %v", rec.WallMS, rerun.WallMS)
		}
	}
}

// TestParseFleetsCanonicalization pins the documented normalization:
// whitespace is trimmed, duplicates collapse, and the result is sorted
// ascending — so every ordering of the same targets enumerates the same
// canonical grid (and therefore the same cell IDs and shard assignment).
func TestParseFleetsCanonicalization(t *testing.T) {
	cases := map[string][]int{
		"":                     {0},
		"   ":                  {0},
		"0":                    {0},
		"1000,100,0":           {0, 100, 1000},
		" 100 ,\t0 , 100":      {0, 100},
		"50,50,50":             {50},
		"0, 0 ,1000, 100 ,100": {0, 100, 1000},
	}
	for in, want := range cases {
		got, err := ParseFleets(in)
		if err != nil {
			t.Errorf("ParseFleets(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseFleets(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ParseFleets(%q) = %v, want %v", in, got, want)
				break
			}
		}
	}
	for _, bad := range []string{"1,,2", "x", "1,-5", ","} {
		if _, err := ParseFleets(bad); err == nil {
			t.Errorf("ParseFleets(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestLoadTraceAxesRejectsBaseFilenameCollision pins the satellite fix:
// two -trace paths whose distinct files share a base filename would both
// name the same trace axis, and Grid's generic "duplicate trace axis
// name" error cannot say which files collided. LoadTraceAxes rejects the
// collision up front, naming both full paths — before any file I/O, so
// the error is about the collision, not about a missing file.
func TestLoadTraceAxesRejectsBaseFilenameCollision(t *testing.T) {
	_, err := LoadTraceAxes([]string{"a/day.csv", "b/day.csv"}, 0)
	if err == nil {
		t.Fatal("base-filename collision unexpectedly accepted")
	}
	for _, want := range []string{"a/day.csv", "b/day.csv", `"day.csv"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("collision error %q does not name %s", err, want)
		}
	}
	// The same path twice is the same collision.
	if _, err := LoadTraceAxes([]string{"day.csv", "day.csv"}, 0); err == nil {
		t.Error("repeated identical path unexpectedly accepted")
	}
	// Distinct basenames proceed to real file I/O (and fail there, on
	// these nonexistent fixtures, with an open error — not the collision).
	if _, err := LoadTraceAxes([]string{"a/one.csv", "b/two.csv"}, 0); err == nil || strings.Contains(err.Error(), "base filename") {
		t.Errorf("distinct basenames: err = %v, want a file-open error", err)
	}
}

// TestLoadTraceAxesConcurrent: several files load concurrently into the
// axes one ReadFile per file gives, in argument order, fingerprints
// included; when the second and third of three files are bad, the
// second's error is returned, with ReadFile's text.
func TestLoadTraceAxesConcurrent(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var paths []string
	for i := 0; i < 5; i++ {
		var body strings.Builder
		for s := 0; s < 3000; s++ {
			fmt.Fprintf(&body, "%d\n", (s/(300+i))%7+i)
		}
		paths = append(paths, write(fmt.Sprintf("t%d.txt", i), body.String()))
	}
	bad2, bad3 := write("bad2.txt", "1\nx\n"), write("bad3.txt", "1\n-1\n")
	for _, quantize := range []int{0, 600} {
		axes, err := LoadTraceAxes(paths, quantize)
		if err != nil {
			t.Fatal(err)
		}
		if len(axes) != len(paths) {
			t.Fatalf("quantize %d: %d axes for %d files", quantize, len(axes), len(paths))
		}
		for i, path := range paths {
			want, err := trace.ReadFile(path, quantize)
			if err != nil {
				t.Fatal(err)
			}
			if axes[i].Name != filepath.Base(path) || axes[i].Trace.Fingerprint() != want.Fingerprint() {
				t.Errorf("quantize %d: axis %d is %s %x, want %s %x", quantize, i,
					axes[i].Name, axes[i].Trace.Fingerprint(), filepath.Base(path), want.Fingerprint())
			}
		}

		_, err = LoadTraceAxes([]string{paths[0], bad2, bad3}, quantize)
		want := fmt.Sprintf(`%s: trace: line 2: bad rate "x": strconv.ParseFloat: parsing "x": invalid syntax`, bad2)
		if err == nil || err.Error() != want {
			t.Errorf("quantize %d: error %v, want %s", quantize, err, want)
		}
		missing := filepath.Join(dir, "missing.txt")
		_, err = LoadTraceAxes([]string{paths[0], missing, bad3}, quantize)
		if _, open := os.Open(missing); err == nil || err.Error() != open.Error() {
			t.Errorf("quantize %d: error %v, want %v", quantize, err, open)
		}
	}
}

func TestSweepStreamEmitErrorCancels(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, []int{0, 5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink full")
	var mu sync.Mutex
	emitted := 0
	err = SweepStream(jobs, 2, func(SweepResult) error {
		mu.Lock()
		defer mu.Unlock()
		emitted++
		if emitted == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("SweepStream error = %v, want sentinel", err)
	}
	if emitted >= len(jobs) {
		t.Errorf("emit called %d times; cancellation should stop the stream early", emitted)
	}
}

// TestSweepStreamGracefulDrain pins ErrStopStream semantics: the stream
// stops starting new cells but still emits every cell that was in flight
// — the property the worker's signal handler relies on to flush computed
// work instead of discarding it — and a real emit failure upgrades the
// drain to a hard error.
func TestSweepStreamGracefulDrain(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	jobs, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, []int{0, 5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	err = SweepStream(jobs, 1, func(SweepResult) error {
		emitted++
		return ErrStopStream
	})
	if !errors.Is(err, ErrStopStream) {
		t.Fatalf("SweepStream error = %v, want ErrStopStream", err)
	}
	// Worker count 1: the stopping cell is emitted, plus at most one more
	// the feed raced in; the rest of the grid never starts.
	if emitted < 1 || emitted > 2 {
		t.Errorf("emitted %d cells after graceful stop, want 1-2 of %d", emitted, len(jobs))
	}

	// A real failure after a graceful stop wins over ErrStopStream.
	sentinel := errors.New("sink broke mid-drain")
	calls := 0
	err = SweepStream(jobs, 2, func(SweepResult) error {
		calls++
		if calls == 1 {
			return ErrStopStream
		}
		return sentinel
	})
	if errors.Is(err, ErrStopStream) && !errors.Is(err, sentinel) {
		// Only one cell may have been emitted before the feed stopped —
		// then the sentinel branch never ran and ErrStopStream is correct.
		if calls > 1 {
			t.Errorf("real emit failure did not upgrade the drain: %v after %d emits", err, calls)
		}
	}
}

func TestCellRecordJSONRoundTrip(t *testing.T) {
	rec := CellRecord{
		Schema: CellSchema,
		ID:     "bml|x|fleet=1|trace=00000000000000aa:42|cfg=00000000000000bb", Name: "x", Scenario: "bml",
		FleetScale: 1.25, TraceHash: "00000000000000aa", TraceLen: 42,
		TraceName: "wc98-a", Config: "h13", ConfigHash: "00000000000000bb",
		TotalJ: 1234.567890123456, DailyJ: []float64{1.1, 2.2},
		Decisions: 7, SwitchOns: 3, SwitchOffs: 2, Skipped: 1,
		Availability: 0.999999999999, ViolationSeconds: 1.5, LostRequests: 0.25,
		TransitionJ: 10, IdleJ: 20, DynamicJ: 30, WallMS: 1.75,
	}
	var buf bytes.Buffer
	if err := WriteCellRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCellRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("records = %d", len(back))
	}
	got := back[0]
	if got.TotalJ != rec.TotalJ || got.Availability != rec.Availability {
		t.Errorf("float64 fields must round-trip exactly: %+v vs %+v", got, rec)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", rec) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

// TestFleetGridCanonical pins that the fleet axis is canonical: every
// spelling and ordering of the same fleet targets enumerates the same cells.
func TestFleetGridCanonical(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	a, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, []int{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	fleets, err := ParseFleets(" 100, 0 ,100")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Grid([]TraceAxis{{Trace: tr}}, planner, nil, fleets)
	if err != nil {
		t.Fatal(err)
	}
	idsA, idsB := CellIDs(a), CellIDs(b)
	if len(idsA) != len(idsB) {
		t.Fatalf("grid sizes differ: %d vs %d", len(idsA), len(idsB))
	}
	inA := map[string]bool{}
	for _, id := range idsA {
		inA[id] = true
	}
	for _, id := range idsB {
		if !inA[id] {
			t.Errorf("cell %s only in one enumeration", id)
		}
	}
	if _, err := ParseFleets("1,x"); err == nil {
		t.Error("bad fleet list accepted")
	}
	if _, err := ParseFleets("-1"); err == nil {
		t.Error("negative fleet accepted")
	}
}

// TestRepeatConfigs pins the repeat axis: expansion produces one axis
// point per config × repeat with sequential nonzero seeds and distinct
// fingerprints, the base-name map lets analysis group repeats without
// parsing suffixes, and the degenerate/unsafe shapes (repeats <= 1, seed
// ranges spanning 0, double expansion) behave as documented.
func TestRepeatConfigs(t *testing.T) {
	configs, err := ParseConfigs("default,name=flaky:boot-fault=0.2:fault-seed=7")
	if err != nil {
		t.Fatal(err)
	}

	expanded, baseOf, err := RepeatConfigs(configs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"default.r1", "default.r2", "default.r3", "flaky.r1", "flaky.r2", "flaky.r3"}
	if len(expanded) != len(wantNames) {
		t.Fatalf("expanded %d points, want %d", len(expanded), len(wantNames))
	}
	fps := map[uint64]string{}
	for i, c := range expanded {
		if c.Name != wantNames[i] {
			t.Errorf("expanded[%d].Name = %q, want %q", i, c.Name, wantNames[i])
		}
		wantSeed := int64(i%3 + 1)
		if c.Config.RepeatSeed != wantSeed {
			t.Errorf("%s: RepeatSeed = %d, want %d", c.Name, c.Config.RepeatSeed, wantSeed)
		}
		if !configNameRE.MatchString(c.Name) {
			t.Errorf("expanded name %q does not satisfy the axis-name charset", c.Name)
		}
		fp := ConfigFingerprint(c.Config)
		if prev, dup := fps[fp]; dup {
			t.Errorf("%s collides with %s: %s", c.Name, prev, CanonicalConfig(c.Config))
		}
		fps[fp] = c.Name
	}
	// Repeats never collide with the unexpanded configs' cells.
	for _, c := range configs {
		if prev, dup := fps[ConfigFingerprint(c.Config)]; dup {
			t.Errorf("unexpanded %s shares a fingerprint with repeat %s", c.Name, prev)
		}
	}
	// The canonical serialization carries the seed as a trailing component,
	// so pre-repeat cache entries and journals keep their identity.
	if got := CanonicalConfig(expanded[0].Config); !strings.HasSuffix(got, ";rep=1") {
		t.Errorf("CanonicalConfig(default.r1) = %q, want ;rep=1 suffix", got)
	}
	for name, base := range map[string]string{"default.r2": "default", "flaky.r3": "flaky"} {
		if baseOf[name] != base {
			t.Errorf("baseOf[%q] = %q, want %q", name, baseOf[name], base)
		}
	}
	// Fault-injecting repeats replay distinct schedules: the effective
	// boot-fault seed is the config's fault seed offset by the repeat's.
	if s := expanded[3].Config; s.FaultSeed+s.RepeatSeed == expanded[4].Config.FaultSeed+expanded[4].Config.RepeatSeed {
		t.Error("flaky.r1 and flaky.r2 would replay the same fault schedule")
	}

	// repeats <= 1 is the identity: same cells as a plain sweep.
	same, baseOf1, err := RepeatConfigs(configs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != len(configs) || same[0].Name != "default" || same[0].Config.RepeatSeed != 0 {
		t.Errorf("repeats=1 must not rename or reseed: %+v", same)
	}
	if baseOf1["default"] != "default" || baseOf1["flaky"] != "flaky" {
		t.Errorf("repeats=1 base map should be the identity: %v", baseOf1)
	}

	if _, _, err := RepeatConfigs(configs, 3, -1); err == nil {
		t.Error("seed range spanning 0 must be rejected")
	}
	if _, _, err := RepeatConfigs(expanded, 2, 1); err == nil {
		t.Error("double expansion must be rejected")
	}
}
