package sim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bml"
)

// This file is the streaming half of distributed sweeps. SweepStream runs
// a (possibly sharded) grid through the worker pool and hands each
// completed cell to an emit callback instead of accumulating a result
// slice, so a worker process's peak memory is bounded by the cells in
// flight, not the grid. CellRecord is the self-describing JSONL wire
// format those cells leave the process in; MergeCells is the coordinator
// side that validates a set of streamed records against the expected grid,
// deduplicates re-run cells, and restores grid order for reporting.

// CellSchema is the version of the CellRecord/cell-ID schema this build
// writes. v1 (records with no schema field) identified cells by
// scenario|name|fleet|trace; v2 added the config fingerprint — cell IDs
// end in "|cfg=<hash>" and records carry config/config_hash — so that BML
// configuration ablations are grid axes. The bump is deliberate and hard:
// a v1 record in a v2 grid is rejected with an explanatory error by
// MergeCells and the ingest coordinator, never silently treated as a
// foreign cell.
const CellSchema = 2

// CellRecord is one completed sweep cell in self-describing form: enough
// identity to validate it against a grid re-enumerated elsewhere (schema
// version, cell ID, scenario, fleet scale, trace fingerprint, config
// fingerprint) plus the full result payload (energies in joules, scheduler
// counters, QoS, wall time). Records are exchanged as JSON Lines; float64
// values round-trip exactly through encoding/json, so merged results are
// bit-identical to in-process ones.
type CellRecord struct {
	Schema     int     `json:"schema"`
	ID         string  `json:"id"`
	Name       string  `json:"name,omitempty"`
	Scenario   string  `json:"scenario"`
	FleetScale float64 `json:"fleet_scale"`
	TraceHash  string  `json:"trace_hash"`
	TraceLen   int     `json:"trace_len"`
	TraceName  string  `json:"trace_name,omitempty"`
	Config     string  `json:"config,omitempty"`
	ConfigHash string  `json:"config_hash"`

	TotalJ float64   `json:"total_J"`
	DailyJ []float64 `json:"daily_J,omitempty"`

	Decisions  int     `json:"decisions,omitempty"`
	SwitchOns  int     `json:"switch_ons,omitempty"`
	SwitchOffs int     `json:"switch_offs,omitempty"`
	Skipped    int     `json:"skipped,omitempty"`
	MigrationJ float64 `json:"migration_J,omitempty"`

	Availability     float64 `json:"availability"`
	ViolationSeconds float64 `json:"violation_s,omitempty"`
	LostRequests     float64 `json:"lost_requests,omitempty"`

	TransitionJ float64 `json:"transition_J,omitempty"`
	IdleJ       float64 `json:"idle_J,omitempty"`
	DynamicJ    float64 `json:"dynamic_J,omitempty"`

	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"error,omitempty"`

	// Cached marks a record that a particular run served from a result
	// cache instead of simulating (see CellCache). It is transport
	// metadata, not part of the result: caches store records with the flag
	// stripped, merges ignore it, and reports only use it for hit-rate
	// accounting — so a warm run's merged output is byte-identical to the
	// cold run that populated the cache.
	Cached bool `json:"cached,omitempty"`
}

// NewCellRecord flattens a SweepResult into its wire form.
func NewCellRecord(r SweepResult) CellRecord {
	fs := r.Job.FleetScale
	if fs == 0 {
		fs = 1
	}
	rec := CellRecord{
		Schema:     CellSchema,
		ID:         CellID(r.Job),
		Name:       r.Job.Name,
		Scenario:   string(r.Job.Scenario),
		FleetScale: fs,
		TraceHash:  fmt.Sprintf("%016x", TraceFingerprint(r.Job.Trace)),
		TraceLen:   traceLen(r.Job.Trace),
		TraceName:  r.Job.TraceName,
		Config:     r.Job.ConfigName,
		ConfigHash: fmt.Sprintf("%016x", ConfigFingerprint(r.Job.BML)),
		WallMS:     float64(r.Wall) / float64(time.Millisecond),
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
		return rec
	}
	res := r.Result
	rec.TotalJ = float64(res.TotalEnergy)
	rec.DailyJ = make([]float64, len(res.DailyEnergy))
	for i, e := range res.DailyEnergy {
		rec.DailyJ[i] = float64(e)
	}
	rec.Decisions = res.Decisions
	rec.SwitchOns = res.SwitchOns
	rec.SwitchOffs = res.SwitchOffs
	rec.Skipped = res.Skipped
	rec.MigrationJ = float64(res.MigrationEnergy)
	rec.Availability = res.QoS.Availability()
	rec.ViolationSeconds = res.QoS.ViolationSeconds()
	rec.LostRequests = res.QoS.LostRequests()
	rec.TransitionJ = float64(res.Breakdown.Transition)
	rec.IdleJ = float64(res.Breakdown.Idle)
	rec.DynamicJ = float64(res.Breakdown.Dynamic)
	return rec
}

// WriteCellRecord appends rec to w as one JSON line.
func WriteCellRecord(w io.Writer, rec CellRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadCellRecords parses a JSONL stream of cell records, ignoring blank
// lines (a truncated final line from a crashed worker is reported as an
// error with its line number).
func ReadCellRecords(r io.Reader) ([]CellRecord, error) {
	recs, _, err := scanCellRecords(r, "cell record", false)
	return recs, err
}

// ErrStopStream is the graceful-drain signal for SweepStream: when emit
// returns it (alone or wrapped), no further cells are started, but the
// cells already in flight still run to completion and are emitted — so a
// worker interrupted by a shutdown signal flushes everything it has
// already paid to compute instead of discarding it. SweepStream returns
// ErrStopStream (or the real error, if a later emit fails outright).
var ErrStopStream = errors.New("sim: stop streaming new cells")

// ReadJournal parses a coordinator journal — JSONL cell records the
// coordinator itself appended — tolerating exactly one malformed FINAL
// line: a coordinator killed mid-append leaves a truncated tail, and the
// journal's whole purpose is recovering from such deaths, so the partial
// line is dropped (reported via truncated) rather than refusing to
// resume. A malformed line anywhere else is real corruption and still an
// error. Use ReadCellRecords for worker output files, where a truncated
// line must be surfaced so the missing cell gets re-run from diagnostics.
func ReadJournal(r io.Reader) (recs []CellRecord, truncated bool, err error) {
	return scanCellRecords(r, "journal", true)
}

// maxRecordLine is the longest JSONL record line a reader accepts.
const maxRecordLine = 16 << 20

// scanCellRecords is the one JSONL decode loop behind ReadCellRecords and
// ReadJournal: blank lines are skipped, a line without an id is an error,
// and a line that is not JSON is an error — unless tornTail is set and it
// turns out to be the last non-blank line, in which case it is dropped and
// reported as truncated. what names the input in error messages.
func scanCellRecords(r io.Reader, what string, tornTail bool) ([]CellRecord, bool, error) {
	// The buffer starts at the scanner's default size and grows to the
	// longest line: most bodies are one record of about 1 KB.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxRecordLine)
	var out []CellRecord
	var torn error // a malformed line, forgiven only if nothing follows it
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if torn != nil {
			return nil, false, torn
		}
		var rec CellRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			torn = fmt.Errorf("sim: %s line %d: %w", what, line, err)
			if !tornTail {
				return nil, false, torn
			}
			continue
		}
		if rec.ID == "" {
			return nil, false, fmt.Errorf("sim: %s line %d: missing id", what, line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	return out, torn != nil, nil
}

// SweepStream executes jobs across a bounded worker pool, handing each
// SweepResult to emit as soon as its cell completes (completion order, not
// grid order). Emit calls are serialized, so an emit that writes JSONL to
// a file needs no locking of its own. Nothing is retained after emit
// returns: the stream's working set is the cells currently in flight,
// which is what lets one process chew through fleet-scaled grids far
// larger than memory. Per-trace predictor precomputation and fleet-scaled
// trace copies are shared across the stream's cells (one look-ahead
// predictor per distinct trace × window, not per cell). An emit error cancels the
// remaining cells and is returned — except ErrStopStream, which drains
// in-flight cells through emit first (graceful stop). Individual cell
// failures are delivered in their SweepResult rather than aborting the
// stream, so a large experiment grid survives one bad cell.
//
// Cells start in grid order, except that each planner's LowerBound cells
// other than its largest one start after every other cell (see
// dispatchOrder): the largest builds the planner's exact table at its own
// grid position while the other workers keep simulating, and the rest read
// prefixes of that one table. Results keep their grid Index.
func SweepStream(jobs []SweepJob, workers int, emit func(SweepResult) error) error {
	if emit == nil {
		return errors.New("sim: SweepStream needs an emit callback")
	}
	if len(jobs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	cache := newSweepCache()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		emitErr  error
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	stopFeed := func() { stopOnce.Do(func() { close(stop) }) }
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				res, err := jobs[i].run(cache)
				r := SweepResult{Job: jobs[i], Index: i, Result: res, Err: err, Wall: time.Since(start)}
				mu.Lock()
				if emitErr == nil || errors.Is(emitErr, ErrStopStream) {
					if eerr := emit(r); eerr != nil {
						// A real failure records itself (and upgrades a
						// graceful stop); ErrStopStream never downgrades a
						// real failure.
						if emitErr == nil || !errors.Is(eerr, ErrStopStream) {
							emitErr = eerr
						}
						stopFeed()
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, i := range dispatchOrder(jobs) {
		select {
		case idx <- i:
		case <-stop:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return emitErr
}

// dispatchOrder returns the order in which SweepStream starts jobs: grid
// order, with every LowerBound cell of a planner except its largest moved
// to the end, in grid order. The largest is the first of those whose
// scaled peak (Trace.Max times FleetScale) asks for the largest exact
// table: bml.Planner.Exact rounds the peak up to the unit grid, within
// 1e-9. Its table covers every other LowerBound cell of the planner, so
// they find it built and no worker waits on the build. It stays at its
// grid position rather than moving to the front, which would keep the
// table live, and in every collection's heap goal, for the whole sweep.
func dispatchOrder(jobs []SweepJob) []int {
	type top struct {
		planner *bml.Planner
		job     int
		units   float64
	}
	var tops []top // one per planner, in order of first LowerBound cell
	lowerBound := func(j SweepJob) bool {
		return j.Scenario == ScenarioLowerBound && j.Trace != nil && j.Planner != nil
	}
	for i, j := range jobs {
		if !lowerBound(j) {
			continue
		}
		peak := j.Trace.Max()
		if j.FleetScale != 0 {
			peak *= j.FleetScale
		}
		units := math.Ceil(peak - 1e-9)
		k := 0
		for k < len(tops) && tops[k].planner != j.Planner {
			k++
		}
		if k == len(tops) {
			tops = append(tops, top{planner: j.Planner, job: i, units: units})
		} else if units > tops[k].units {
			tops[k].job, tops[k].units = i, units
		}
	}
	order := make([]int, 0, len(jobs))
	var later []int
	for i, j := range jobs {
		if lowerBound(j) && !slices.ContainsFunc(tops, func(t top) bool { return t.job == i }) {
			later = append(later, i)
			continue
		}
		order = append(order, i)
	}
	return append(order, later...)
}

// ErrCellSchema marks a record written under a different cell-ID schema
// than this build's — a condition no amount of re-dispatching or retrying
// fixes, which callers (the bmlsweep exit-code contract) must distinguish
// from an incomplete grid. Test with errors.Is.
var ErrCellSchema = errors.New("sim: cell schema mismatch")

// CheckCellSchema rejects records written under a different cell-ID schema
// than this build's. A v1 record's IDs lack the cfg= component, so letting
// one into a v2 merge would misreport every cell as foreign; the explicit
// error (wrapping ErrCellSchema) says what actually happened and what to
// do about it.
func CheckCellSchema(rec CellRecord) error {
	if rec.Schema == CellSchema {
		return nil
	}
	v := rec.Schema
	if v == 0 {
		v = 1 // records predating the schema field
	}
	return fmt.Errorf("%w: record %s: schema v%d, this build expects v%d (v2 cell IDs carry a config fingerprint: re-run the workers from this build, or keep old journals/outputs with the build that wrote them)",
		ErrCellSchema, rec.ID, v, CellSchema)
}

// checkCellSchemas is CheckCellSchema over a whole record set, reporting
// the first mismatch.
func checkCellSchemas(recs []CellRecord) error {
	for _, rec := range recs {
		if err := CheckCellSchema(rec); err != nil {
			return err
		}
	}
	return nil
}

// MergeStats describes what MergeCells saw: how many records arrived, how
// many were duplicate re-runs of the same cell, and which expected cells
// are missing, foreign to the grid, or failed.
type MergeStats struct {
	Records    int
	Duplicates int
	Missing    []string // expected cell IDs with no record
	Unknown    []string // record IDs that are not cells of the expected grid
	Failed     []string // cell IDs whose only records carry errors
}

// Complete reports whether the merge covered the whole grid cleanly.
func (s MergeStats) Complete() bool {
	return len(s.Missing) == 0 && len(s.Unknown) == 0 && len(s.Failed) == 0
}

// MergeCells validates streamed records against the expected grid and
// returns one record per expected cell, restored to grid order. Re-run
// cells (the same cell ID appearing in several inputs, e.g. a retried CI
// matrix job) are deduplicated by the cellSet rule — the first successful
// record in input order wins and a success replaces a failure — which the
// Ingest coordinator shares, so file merges and network ingests of the
// same records agree. Duplicates counts every repeat of a cell, including
// a success that replaced a failure. The merge fails — with the full
// accounting in MergeStats — if any expected cell is missing or only
// failed, or if a record belongs to a different grid (wrong trace,
// scenario set, or fleet axis).
func MergeCells(expected []SweepJob, records []CellRecord) ([]CellRecord, MergeStats, error) {
	stats := MergeStats{Records: len(records)}
	// A mixed-schema record set is a hard error, not a foreign record: v1
	// IDs would otherwise all report as Unknown.
	if err := checkCellSchemas(records); err != nil {
		return nil, stats, err
	}
	cells := newCellSet(CellIDs(expected))
	for _, rec := range records {
		if v, _ := cells.add(rec, nil); v == cellUnknown {
			stats.Unknown = append(stats.Unknown, rec.ID)
		}
	}
	stats.Duplicates = cells.dups + cells.replaced
	out := make([]CellRecord, 0, len(cells.order))
	for i, id := range cells.order {
		switch {
		case !cells.held[i]:
			stats.Missing = append(stats.Missing, id)
		case !cells.covered(i):
			stats.Failed = append(stats.Failed, id)
		default:
			out = append(out, cells.best[i])
		}
	}
	if !stats.Complete() {
		return out, stats, fmt.Errorf("sim: merge incomplete: %d/%d cells ok (%d missing, %d failed, %d foreign records)",
			len(out), len(cells.order), len(stats.Missing), len(stats.Failed), len(stats.Unknown))
	}
	return out, stats, nil
}
