package sim

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/trace"
)

// TestCellIDGoldenV1V2 pins the cell-ID schema bump byte-for-byte: the v2
// ID of a default-config cell is exactly its v1 ID plus the "|cfg=" suffix
// carrying the default config's fingerprint — so the bump is explicit
// (every ID changed, in one documented way) rather than silent, and the
// default fingerprint itself is a stable constant across processes and
// releases. Changing CanonicalConfig's normalization or format is a schema
// change and must fail here first.
func TestCellIDGoldenV1V2(t *testing.T) {
	tr := trace.MustNew([]float64{100, 250, 400, 250})
	j := SweepJob{Name: "bml/fleet=0", Scenario: ScenarioBML, Trace: tr}

	const (
		goldenV1        = "bml|bml/fleet=0|fleet=1|trace=749c38cb2ebee961:4"
		goldenDefaultFP = "7258fafe00eb26ce"
		goldenV2        = goldenV1 + "|cfg=" + goldenDefaultFP
	)
	if got := CellID(j); got != goldenV2 {
		t.Errorf("CellID = %q, want golden v2 %q", got, goldenV2)
	}
	if got := fmt.Sprintf("%016x", ConfigFingerprint(BMLConfig{})); got != goldenDefaultFP {
		t.Errorf("default config fingerprint = %s, want golden %s", got, goldenDefaultFP)
	}
	const goldenCanonical = "wf=2;headroom=1;pred=lookahead;app=-;inv=-;fault=-;overhead=-"
	if got := CanonicalConfig(BMLConfig{}); got != goldenCanonical {
		t.Errorf("CanonicalConfig(default) = %q, want golden %q", got, goldenCanonical)
	}

	// The v2 ID is the v1 ID plus the cfg suffix: prefix-compatible, so
	// the bump is mechanically auditable from any record pair.
	if !strings.HasPrefix(CellID(j), goldenV1+"|cfg=") {
		t.Errorf("v2 ID %q does not extend the v1 ID %q", CellID(j), goldenV1)
	}

	// A non-default config moves only the cfg component.
	h13 := j
	h13.BML = BMLConfig{Headroom: 1.3}
	if id := CellID(h13); !strings.HasPrefix(id, goldenV1+"|cfg=") || id == goldenV2 {
		t.Errorf("headroom ablation ID = %q: want same prefix, different cfg", id)
	}
}

// TestCanonicalConfigNormalization pins that zero/default spellings of the
// same physics fingerprint identically — the property that lets every
// process derive the default cell IDs without coordination — and that each
// result-affecting knob moves the fingerprint.
func TestCanonicalConfigNormalization(t *testing.T) {
	def := ConfigFingerprint(BMLConfig{})
	same := []BMLConfig{
		{WindowFactor: 2},
		{Headroom: 1},
		{WindowFactor: 2, Headroom: 1},
		{PredictorSpec: "lookahead"},
		{FaultSeed: 99},               // seed is inert without a fault probability
		{AmortizeSeconds: 378},        // inert without OverheadAware
		{Inventory: map[string]int{}}, // empty inventory = no inventory
	}
	for i, cfg := range same {
		if got := ConfigFingerprint(cfg); got != def {
			t.Errorf("same[%d] (%+v): fingerprint %016x != default %016x\ncanonical: %s",
				i, cfg, got, def, CanonicalConfig(cfg))
		}
	}

	spec := app.StatelessWebServer()
	spec.Class = app.Critical
	different := []BMLConfig{
		{Headroom: 1.3},
		{WindowFactor: 3},
		{PredictorSpec: "oracle"},
		{PredictorSpec: "ewma"},
		{PredictorSpec: "ewma:0.5"},
		{PredictorSpec: "pattern"},
		{OverheadAware: true},
		{OverheadAware: true, AmortizeSeconds: 600},
		{BootFaultProb: 0.01},
		{BootFaultProb: 0.01, FaultSeed: 7},
		{RepeatSeed: 1},
		{RepeatSeed: 2},
		{BootFaultProb: 0.01, FaultSeed: 7, RepeatSeed: 1},
		{App: &spec},
		{Inventory: map[string]int{"paravance": 4}},
	}
	seen := map[uint64]string{def: "default"}
	for i, cfg := range different {
		fp := ConfigFingerprint(cfg)
		if prev, dup := seen[fp]; dup {
			t.Errorf("different[%d] collides with %s: %s", i, prev, CanonicalConfig(cfg))
		}
		seen[fp] = CanonicalConfig(cfg)
	}

	// ewma and its explicit default alpha normalize together.
	if ConfigFingerprint(BMLConfig{PredictorSpec: "ewma"}) != ConfigFingerprint(BMLConfig{PredictorSpec: "ewma:0.1"}) {
		t.Error("ewma and ewma:0.1 (the default alpha) must fingerprint identically")
	}
	// Inventory serialization is order-independent (sorted).
	a := ConfigFingerprint(BMLConfig{Inventory: map[string]int{"a": 1, "b": 2}})
	b := ConfigFingerprint(BMLConfig{Inventory: map[string]int{"b": 2, "a": 1}})
	if a != b {
		t.Error("inventory fingerprint must not depend on map iteration order")
	}
}

func TestParseConfigs(t *testing.T) {
	// Empty means the default axis.
	axis, err := ParseConfigs("")
	if err != nil || len(axis) != 1 || axis[0].Name != "default" || ConfigFingerprint(axis[0].Config) != ConfigFingerprint(BMLConfig{}) {
		t.Fatalf("ParseConfigs(\"\") = %+v, %v", axis, err)
	}

	axis, err = ParseConfigs("default, name=h13:headroom=1.3, name=oa:overhead-aware=true:amortize=600, name=ew:predictor=ewma:ewma-alpha=0.3, name=crit:critical=true, name=faulty:boot-fault=0.05:fault-seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(axis) != 6 {
		t.Fatalf("parsed %d configs, want 6", len(axis))
	}
	byName := map[string]BMLConfig{}
	for _, a := range axis {
		byName[a.Name] = a.Config
	}
	if byName["h13"].Headroom != 1.3 {
		t.Errorf("h13 = %+v", byName["h13"])
	}
	if cfg := byName["oa"]; !cfg.OverheadAware || cfg.AmortizeSeconds != 600 {
		t.Errorf("oa = %+v", cfg)
	}
	if cfg := byName["ew"]; cfg.PredictorSpec != "ewma:0.3" {
		t.Errorf("ew predictor spec = %q", cfg.PredictorSpec)
	}
	if cfg := byName["crit"]; cfg.App == nil || cfg.App.Class != app.Critical {
		t.Errorf("crit = %+v", cfg)
	}
	if cfg := byName["faulty"]; cfg.BootFaultProb != 0.05 || cfg.FaultSeed != 7 {
		t.Errorf("faulty = %+v", cfg)
	}

	// Seeds parse as integers exactly, even past float64's 2^53 precision.
	big, err := ParseConfigs("name=b:boot-fault=0.1:fault-seed=9007199254740993")
	if err != nil || big[0].Config.FaultSeed != 9007199254740993 {
		t.Errorf("large fault-seed = %+v, %v (float rounding?)", big, err)
	}
	// repeat-seed round-trips (the key RepeatConfigs-expanded specs carry).
	rep, err := ParseConfigs("name=r:headroom=1.3:repeat-seed=5")
	if err != nil || rep[0].Config.RepeatSeed != 5 {
		t.Errorf("repeat-seed = %+v, %v", rep, err)
	}
	// Order is preserved (the ablation table's row order).
	if axis[0].Name != "default" || axis[1].Name != "h13" {
		t.Errorf("config order not preserved: %v, %v", axis[0].Name, axis[1].Name)
	}

	for _, bad := range []string{
		"name=x:headroom=0.5",                      // headroom < 1
		"name=x:window-factor=0",                   // non-positive window
		"name=x:predictor=psychic",                 // unknown predictor
		"name=x:ewma-alpha=0.3",                    // alpha without ewma
		"name=x:predictor=ewma:ewma-alpha=2",       // alpha out of range
		"name=x:amortize=10",                       // amortize without overhead-aware
		"name=x:boot-fault=1.5",                    // probability out of range
		"name=x:fault-seed=3",                      // seed without fault probability
		"name=x:boot-fault=0.1:fault-seed=1.5",     // non-integer seed
		"name=x:repeat-seed=0",                     // 0 means "not a repeat"
		"name=x:repeat-seed=1.5",                   // non-integer repeat seed
		"name=x:nonsense=1",                        // unknown key
		"headroom=1.3",                             // missing name
		"name=default:headroom=1.3",                // "default" is reserved for the zero config
		"name=has space:headroom=1.3",              // bad name charset
		"name=a|b",                                 // '|' would corrupt the cell ID
		"default,default",                          // duplicate names
		"name=x:headroom=1.2,name=x:headroom=1.3",  // duplicate names
		"name=x:headroom=1:headroom=2",             // duplicate key
		"name=x:headroom=NaN",                      // NaN passes every range check
		"name=x:window-factor=Inf",                 // non-finite window
		"name=x:window-factor=1e300",               // window overflows int
		"name=x:window-factor=5e16",                // 189 s × 5e16 overflows int
		"name=x:boot-fault=nan",                    // NaN probability
		"name=x:overhead-aware=true:amortize=+Inf", // non-finite horizon
		"name=x:predictor=ewma:ewma-alpha=NaN",     // NaN alpha
		",",                                        // empty specs
	} {
		if _, err := ParseConfigs(bad); err == nil {
			t.Errorf("ParseConfigs(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestGridEnumeration pins the grid shape: scenario × trace × fleet ×
// config with the three config-independent bound scenarios enumerated once
// per trace × fleet (under the zero config), so a grid has
// traces × fleets × (3 + configs) cells, all IDs unique, and independent
// enumerations agree.
func TestGridEnumeration(t *testing.T) {
	trA := shardTestTrace(t, 1)
	trB, err := trA.Scale(1.5)
	if err != nil {
		t.Fatal(err)
	}
	planner := shardTestPlanner(t)
	traces := []TraceAxis{{Name: "a", Trace: trA}, {Name: "b", Trace: trB}}
	configs, err := ParseConfigs("default,name=h13:headroom=1.3,name=oa:overhead-aware=true")
	if err != nil {
		t.Fatal(err)
	}
	fleets := []int{0, 30}

	jobs, err := Grid(traces, planner, configs, fleets)
	if err != nil {
		t.Fatal(err)
	}
	want := len(traces) * len(fleets) * (3 + len(configs))
	if len(jobs) != want {
		t.Fatalf("grid has %d cells, want %d (traces × fleets × (3 bounds + configs))", len(jobs), want)
	}
	ids := map[string]bool{}
	bmlCells, boundCells := 0, 0
	for _, j := range jobs {
		id := CellID(j)
		if ids[id] {
			t.Errorf("duplicate cell ID %s", id)
		}
		ids[id] = true
		if j.Scenario == ScenarioBML {
			bmlCells++
			if j.ConfigName == "" {
				t.Errorf("BML cell %s lacks a config name", j.Name)
			}
		} else {
			boundCells++
			// Bounds are config-independent: zero config, default
			// fingerprint, no config label.
			if j.ConfigName != "" || ConfigFingerprint(j.BML) != ConfigFingerprint(BMLConfig{}) {
				t.Errorf("bound cell %s carries config identity (%q)", j.Name, j.ConfigName)
			}
			if strings.Contains(j.Name, "cfg=") {
				t.Errorf("bound cell name %s carries a cfg segment", j.Name)
			}
		}
		if j.TraceName == "" || !strings.Contains(j.Name, "trace="+j.TraceName) {
			t.Errorf("cell %s: trace axis not in the name", j.Name)
		}
	}
	if bmlCells != len(traces)*len(fleets)*len(configs) || boundCells != len(traces)*len(fleets)*3 {
		t.Errorf("cells: %d BML + %d bounds", bmlCells, boundCells)
	}

	// Independent enumeration agrees ID-for-ID (the no-coordination
	// contract workers and coordinator rely on).
	again, err := Grid(traces, planner, configs, fleets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if CellID(again[i]) != CellID(jobs[i]) {
			t.Fatalf("enumeration not deterministic at %d", i)
		}
	}

	// The default-config cells of a single-trace grid keep their v1-era
	// names.
	fg, err := Grid([]TraceAxis{{Trace: trA}}, planner, nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(fg) != 4 || fg[2].Name != "bml/fleet=0" {
		t.Fatalf("single-trace default grid names changed: %+v", CellIDs(fg))
	}

	// Validation: duplicate axis names, nil traces, unnamed multi-trace
	// grids, negative fleets.
	for _, bad := range []func() error{
		func() error {
			_, err := Grid([]TraceAxis{{Name: "a", Trace: trA}, {Name: "a", Trace: trB}}, planner, nil, nil)
			return err
		},
		func() error {
			_, err := Grid([]TraceAxis{{Name: "a", Trace: trA}, {Name: "", Trace: trB}}, planner, nil, nil)
			return err
		},
		func() error { _, err := Grid([]TraceAxis{{Name: "a", Trace: nil}}, planner, nil, nil); return err },
		func() error { _, err := Grid(nil, planner, nil, nil); return err },
		func() error {
			// A ',' or '|' in a trace name would corrupt CSV columns and
			// '|'-delimited cell IDs downstream.
			_, err := Grid([]TraceAxis{{Name: "wc,a.txt", Trace: trA}}, planner, nil, nil)
			return err
		},
		func() error {
			// Two axis points with the same effective physics would
			// enumerate the same cell ID twice.
			_, err := Grid([]TraceAxis{{Trace: trA}}, planner,
				[]ConfigAxis{{Name: "default"}, {Name: "alias", Config: BMLConfig{WindowFactor: 2}}}, nil)
			return err
		},
		func() error {
			_, err := Grid([]TraceAxis{{Trace: trA}}, planner, []ConfigAxis{{Name: "x"}, {Name: "x"}}, nil)
			return err
		},
		func() error { _, err := Grid([]TraceAxis{{Trace: trA}}, planner, nil, []int{-1}); return err },
	} {
		if bad() == nil {
			t.Error("invalid grid unexpectedly accepted")
		}
	}
}

// TestMergeCellsRejectsMixedSchema pins satellite coverage for the schema
// bump: a v1 record (no schema field) inside an otherwise valid record set
// fails the merge with the explanatory error, not as a silently foreign
// cell.
func TestMergeCellsRejectsMixedSchema(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	v1 := recs[0]
	v1.Schema = 0 // what a pre-v2 worker wrote
	mixed := append([]CellRecord{v1}, recs[1:]...)
	_, _, err := MergeCells(jobs, mixed)
	if err == nil || !strings.Contains(err.Error(), "schema v1") || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("mixed-schema merge error = %v, want schema mismatch naming v1 and v2", err)
	}
	// And a future schema is equally rejected, not assumed compatible.
	v3 := recs[0]
	v3.Schema = 3
	if _, _, err := MergeCells(jobs, append([]CellRecord{v3}, recs[1:]...)); err == nil || !strings.Contains(err.Error(), "schema v3") {
		t.Fatalf("v3 record error = %v", err)
	}
}

// TestIngestRejectsMixedSchema covers the same bump at the coordinator: a
// POSTed v1 batch is a 400 (the sink fails fast instead of retrying), a
// primed v1 journal refuses to resume, and Add rejects offline records.
func TestIngestRejectsMixedSchema(t *testing.T) {
	ing, _, recs := ingestFixture(t, nil)
	srv := httptest.NewServer(oneRunFleet(t, ing))
	defer srv.Close()

	v1 := recs[0]
	v1.Schema = 0
	var body strings.Builder
	if err := WriteCellRecord(&body, v1); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/cells", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(raw, "schema v1") {
		t.Fatalf("v1 POST = %s (%s), want 400 naming the schema", resp.Status, strings.TrimSpace(raw))
	}
	if st := ing.Status(); st.Received != 0 {
		t.Fatalf("rejected record folded in: %+v", st)
	}

	// The HTTP sink treats the 400 as permanent: no retry storm against a
	// coordinator that can never accept the records.
	var slept []time.Duration
	s := instantSink(t, srv.URL, &slept)
	if err := s.Emit(v1); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("sink error = %v, want fail-fast rejection", err)
	}
	if len(slept) != 0 {
		t.Errorf("schema rejection retried %d times", len(slept))
	}

	if _, err := ing.Prime([]CellRecord{v1}); err == nil || !strings.Contains(err.Error(), "schema v1") {
		t.Fatalf("Prime(v1) error = %v, want schema mismatch", err)
	}
	if err := ing.Add(v1); err == nil || !strings.Contains(err.Error(), "schema v1") {
		t.Fatalf("Add(v1) error = %v, want schema mismatch", err)
	}
}

// TestIngestStatusRemoteLiveness pins the coordinator's per-remote view:
// every posting worker appears with its record count and last-ingest age,
// keyed by the X-Bml-Worker identity the HTTP sink sends, so a stalled
// worker (age growing, cells pending) is visible without any connection
// ever failing.
func TestIngestStatusRemoteLiveness(t *testing.T) {
	ing, _, recs := ingestFixture(t, nil)
	clock := time.Unix(1000, 0)
	srv := httptest.NewServer(oneRunFleet(t, ing, withFleetClock(func() time.Time { return clock })))
	defer srv.Close()

	post := func(worker string, rec CellRecord) {
		t.Helper()
		var body strings.Builder
		if err := WriteCellRecord(&body, rec); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/cells", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(WorkerHeader, worker)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST as %s = %s", worker, resp.Status)
		}
	}

	post("host-a:1:shard=0/2", recs[0])
	clock = clock.Add(30 * time.Second)
	post("host-b:2:shard=1/2", recs[1])
	post("host-b:2:shard=1/2", recs[2])
	clock = clock.Add(10 * time.Second)

	st := ing.Status()
	if len(st.Remotes) != 2 {
		t.Fatalf("remotes = %+v, want 2 workers", st.Remotes)
	}
	a, b := st.Remotes[0], st.Remotes[1] // sorted by name
	if a.Remote != "host-a:1:shard=0/2" || a.Records != 1 || a.LastIngestAgeSeconds != 40 {
		t.Errorf("worker a = %+v, want 1 record 40s ago", a)
	}
	if b.Remote != "host-b:2:shard=1/2" || b.Records != 2 || b.LastIngestAgeSeconds != 10 {
		t.Errorf("worker b = %+v, want 2 records 10s ago", b)
	}

	// The default sink identity reaches the coordinator too (host:pid).
	sink, err := NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(recs[3]); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); len(st.Remotes) != 3 {
		t.Errorf("default sink identity not tracked: %+v", st.Remotes)
	}
}

// TestAblationGridKillResumeMatchesPerConfigSweeps is the acceptance
// differential for the config × trace × fleet grid: sharded, streamed over
// HTTP with a worker killed mid-run, resumed from the coordinator's
// pending set, and merged — then compared cell-for-cell (≤1e-6 J, exact
// counters) against independent per-config in-process sweeps, each
// enumerating only its own config's sub-grid. The union of the per-config
// sub-grids is exactly the ablation grid (bounds dedup onto the default
// fingerprint), so every merged cell is checked against an independently
// computed twin.
func TestAblationGridKillResumeMatchesPerConfigSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-axis differential sweep")
	}
	trA := shardTestTrace(t, 1)
	trB, err := trA.Scale(1.4)
	if err != nil {
		t.Fatal(err)
	}
	planner := shardTestPlanner(t)
	traces := []TraceAxis{{Name: "a", Trace: trA}, {Name: "b", Trace: trB}}
	configs, err := ParseConfigs("default,name=h13:headroom=1.3:overhead-aware=true")
	if err != nil {
		t.Fatal(err)
	}
	fleets := []int{0, 25}
	jobs, err := Grid(traces, planner, configs, fleets)
	if err != nil {
		t.Fatal(err)
	}

	// The independent oracle: one in-process sweep per config over that
	// config's own sub-grid, no streaming, no sharing with the grid run.
	want := map[string]CellRecord{}
	for _, ca := range configs {
		sub, err := Grid(traces, planner, []ConfigAxis{ca}, fleets)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sweepAll(sub, 0) {
			if r.Err != nil {
				t.Fatalf("per-config sweep cell %s: %v", r.Job.Name, r.Err)
			}
			rec := NewCellRecord(r)
			want[rec.ID] = rec
		}
	}
	for _, j := range jobs {
		if _, ok := want[CellID(j)]; !ok {
			t.Fatalf("grid cell %s not covered by any per-config sub-grid", CellID(j))
		}
	}

	ing := NewIngest(jobs)
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
		shard0, shard1 = shard1, shard0
	}

	// Worker 0 dies mid-shard after one durable cell.
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
	// Worker 1 completes.
	sink1, err := NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepStreamToCache(shard1, 2, sink1, nil); err != nil {
		t.Fatalf("worker 1: %v", err)
	}

	// Resume exactly the pending set.
	pendingSet := map[string]bool{}
	for _, id := range ing.Pending() {
		pendingSet[id] = true
	}
	if len(pendingSet) != len(shard0)-1 {
		t.Fatalf("pending %d cells, want %d", len(pendingSet), len(shard0)-1)
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
		if got.Config != w.Config || got.ConfigHash != w.ConfigHash || got.TraceName != w.TraceName {
			t.Errorf("%s: axis labels (%q,%q,%q) vs (%q,%q,%q)", got.ID,
				got.Config, got.ConfigHash, got.TraceName, w.Config, w.ConfigHash, w.TraceName)
		}
	}
}

// TestPredictorSpecMatchesExplicitPredictor pins that the declarative spec
// path builds the same physics as handing RunBML a concrete predictor: the
// ablation grid's predictor axis is exactly the classic -predictor flags.
func TestPredictorSpecMatchesExplicitPredictor(t *testing.T) {
	tr := shardTestTrace(t, 1)
	planner := shardTestPlanner(t)
	for _, spec := range []string{"oracle", "lastvalue", "ewma:0.2"} {
		viaSpec, err := RunBML(tr, planner, BMLConfig{PredictorSpec: spec})
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		window := 378 // paper window: 2 × 189 s Paravance boot
		pred, err := predictorFromSpec(tr, spec, window)
		if err != nil || pred == nil {
			t.Fatalf("predictorFromSpec(%q) = %v, %v", spec, pred, err)
		}
		viaInstance, err := RunBML(tr, planner, BMLConfig{Predictor: pred})
		if err != nil {
			t.Fatalf("instance %q: %v", spec, err)
		}
		if math.Abs(float64(viaSpec.TotalEnergy-viaInstance.TotalEnergy)) > 1e-6 ||
			viaSpec.Decisions != viaInstance.Decisions {
			t.Errorf("spec %q: %v J/%d decisions vs instance %v J/%d decisions", spec,
				viaSpec.TotalEnergy, viaSpec.Decisions, viaInstance.TotalEnergy, viaInstance.Decisions)
		}
	}
	// An unknown spec fails loudly at rig-build time.
	if _, err := RunBML(tr, planner, BMLConfig{PredictorSpec: "psychic"}); err == nil {
		t.Error("unknown predictor spec unexpectedly accepted")
	}
}
