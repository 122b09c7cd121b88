package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Fuzz targets for the text parsers reachable from the command line and
// the network. Their seed corpora live under testdata/fuzz/<target>/ and
// run as ordinary tests; `go test -run xxx -fuzz FuzzParseConfigs
// -fuzztime 60s ./internal/sim` explores beyond them.

// formatConfigSpec renders a parsed config back into the -configs grammar:
// the writer half of the ParseConfigs round trip.
func formatConfigSpec(a ConfigAxis) string {
	if a.Name == "default" {
		return "default"
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	cfg := a.Config
	parts := []string{"name=" + a.Name}
	if cfg.Headroom != 0 {
		parts = append(parts, "headroom="+g(cfg.Headroom))
	}
	if cfg.WindowFactor != 0 {
		parts = append(parts, "window-factor="+g(cfg.WindowFactor))
	}
	if cfg.OverheadAware {
		parts = append(parts, "overhead-aware=true")
		if cfg.AmortizeSeconds != 0 {
			parts = append(parts, "amortize="+g(cfg.AmortizeSeconds))
		}
	}
	if cfg.App != nil {
		parts = append(parts, "critical=true")
	}
	if cfg.BootFaultProb != 0 || cfg.FaultSeed != 0 {
		parts = append(parts, "boot-fault="+g(cfg.BootFaultProb), fmt.Sprintf("fault-seed=%d", cfg.FaultSeed))
	}
	if cfg.RepeatSeed != 0 {
		parts = append(parts, fmt.Sprintf("repeat-seed=%d", cfg.RepeatSeed))
	}
	if kind, alpha, ok := strings.Cut(cfg.PredictorSpec, ":"); ok {
		parts = append(parts, "predictor="+kind, "ewma-alpha="+alpha)
	} else if kind != "" {
		parts = append(parts, "predictor="+kind)
	}
	return strings.Join(parts, ":")
}

// FuzzParseConfigs holds the -configs parser to three properties: it never
// panics, every accepted config has a finite canonical form, and every
// accepted list re-parses from its rendered form to the identical axis
// (names, order, and every knob).
func FuzzParseConfigs(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		axis, err := ParseConfigs(s)
		if err != nil {
			return
		}
		specs := make([]string, len(axis))
		for i, a := range axis {
			if c := CanonicalConfig(a.Config); strings.Contains(c, "NaN") || strings.Contains(c, "Inf") {
				t.Fatalf("%q accepted a non-finite knob: %s", s, c)
			}
			specs[i] = formatConfigSpec(a)
		}
		written := strings.Join(specs, ",")
		back, err := ParseConfigs(written)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, written, err)
		}
		if !reflect.DeepEqual(axis, back) {
			t.Fatalf("%q: round trip through %q changed the axis:\n got %+v\nwant %+v", s, written, back, axis)
		}
	})
}

// FuzzReadCellRecords holds the cell-record reader — the body of every
// POST to a sweep coordinator — to two properties: it never panics, and
// every accepted body re-reads from its rewritten form to records that
// rewrite to the same bytes.
func FuzzReadCellRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := ReadCellRecords(bytes.NewReader(body))
		if err != nil {
			return
		}
		var first bytes.Buffer
		for _, rec := range recs {
			if err := WriteCellRecord(&first, rec); err != nil {
				t.Fatalf("accepted record does not write: %v", err)
			}
		}
		back, err := ReadCellRecords(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rewritten records do not read: %v\n%s", err, first.Bytes())
		}
		if len(back) != len(recs) {
			t.Fatalf("read %d records, re-read %d", len(recs), len(back))
		}
		var second bytes.Buffer
		for _, rec := range back {
			if err := WriteCellRecord(&second, rec); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the records:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadJournal holds the coordinator journal reader to the contract its
// resume path depends on: it never panics; an input with no malformed line
// reads exactly like ReadCellRecords; a valid journal followed by a torn
// final fragment (a coordinator killed mid-append) reads to the same
// records with truncated set; and a malformed line that is not the last
// one is an error.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, truncated, jerr := ReadJournal(bytes.NewReader(body))
		want, werr := ReadCellRecords(bytes.NewReader(body))
		if werr == nil {
			if jerr != nil || truncated || !reflect.DeepEqual(recs, want) {
				t.Fatalf("well-formed input: ReadJournal = (%d records, truncated %v, %v), ReadCellRecords = %d records",
					len(recs), truncated, jerr, len(want))
			}
		} else if jerr == nil && !truncated {
			t.Fatalf("ReadCellRecords rejects the input (%v) but ReadJournal accepts it untruncated", werr)
		}
		if werr != nil {
			return
		}

		// Tear a copy of a record in half and append it as the final line.
		valid := append([]byte(nil), body...)
		if len(valid) > 0 && valid[len(valid)-1] != '\n' {
			valid = append(valid, '\n')
		}
		whole := []byte(`{"schema":2,"id":"torn-cell","total_J":1}`)
		if len(want) > 0 {
			var buf bytes.Buffer
			if err := WriteCellRecord(&buf, want[0]); err != nil {
				t.Fatal(err)
			}
			whole = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		}
		torn := append(append([]byte(nil), valid...), whole[:len(whole)/2]...)
		got, truncated, err := ReadJournal(bytes.NewReader(torn))
		if err != nil || !truncated || !reflect.DeepEqual(got, want) {
			t.Fatalf("torn tail: got (%d records, truncated %v, %v), want (%d records, truncated, nil)",
				len(got), truncated, err, len(want))
		}

		// The same fragment followed by a good line is corruption.
		corrupt := append(append(torn, '\n'), whole...)
		corrupt = append(corrupt, '\n')
		if _, _, err := ReadJournal(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("a malformed line before the last one was accepted:\n%s", corrupt)
		}
	})
}

// FuzzParseShard holds the -shard parser to three properties: it never
// panics, every accepted spec is in range (0 <= Index < Count), and every
// accepted spec re-parses from its String form to the identical spec.
func FuzzParseShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseShard(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%q accepted an out-of-range spec %+v: %v", s, spec, err)
		}
		back, err := ParseShard(spec.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, but its rendering %q does not: %v", s, spec, spec.String(), err)
		}
		if back != spec {
			t.Fatalf("%q: round trip through %q changed the spec: %+v, want %+v", s, spec.String(), back, spec)
		}
	})
}

// formatFleets renders a fleet axis back into the -fleets grammar: the
// writer half of the ParseFleets round trip.
func formatFleets(fleets []int) string {
	parts := make([]string, len(fleets))
	for i, n := range fleets {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// FuzzParseFleets holds the -fleets parser to three properties: it never
// panics, every accepted list is a non-empty, strictly ascending list of
// targets >= 0 (the canonical grid axis), and every accepted list
// re-parses from its rendered form to the identical list.
func FuzzParseFleets(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		fleets, err := ParseFleets(s)
		if err != nil {
			return
		}
		if len(fleets) == 0 {
			t.Fatalf("%q accepted an empty fleet axis", s)
		}
		for i, n := range fleets {
			if n < 0 || (i > 0 && n <= fleets[i-1]) {
				t.Fatalf("%q accepted a non-canonical fleet axis %v", s, fleets)
			}
		}
		written := formatFleets(fleets)
		back, err := ParseFleets(written)
		if err != nil {
			t.Fatalf("%q parsed to %v, but its rendering %q does not: %v", s, fleets, written, err)
		}
		if !reflect.DeepEqual(back, fleets) {
			t.Fatalf("%q: round trip through %q changed the axis: %v, want %v", s, written, back, fleets)
		}
	})
}

// FuzzLeaseRequest drives the lease endpoint (POST /v2/runs/{run}/lease)
// with arbitrary bodies against a coordinator whose first cell is covered
// and whose second is leased to another worker. Every body must get a 200
// or a 400, never a panic or a 5xx. A 200 must grant exactly what Claim
// promises: at most max cells, all of them pending and not leased to
// someone else, the first such cells in grid order. A 400 must leave the
// leases as they were.
func FuzzLeaseRequest(f *testing.F) {
	var (
		once sync.Once
		jobs []SweepJob
		recs []CellRecord
	)
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	f.Fuzz(func(t *testing.T, body []byte) {
		once.Do(func() { jobs, recs = gridAndRecords(t) })
		if jobs == nil {
			t.Fatal("no grid")
		}
		ing := NewIngest(jobs)
		fl := oneRunFleet(t, ing, withFleetClock(clock))
		if err := ing.Add(recs[0]); err != nil {
			t.Fatal(err)
		}
		ids := CellIDs(jobs)
		if got := ing.Claim("other", 1); len(got) != 1 || got[0] != ids[1] {
			t.Fatalf("setup claim = %v, want [%s]", got, ids[1])
		}

		w := httptest.NewRecorder()
		fl.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/runs/default/lease", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusBadRequest:
			if st := ing.Status(); st.Leased != 1 {
				t.Fatalf("rejected body %q changed the leases: %d leased, want 1", body, st.Leased)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("body %q: status %d, want 200 or 400:\n%s", body, w.Code, w.Body)
		}

		var req LeaseRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("body %q was granted but does not decode: %v", body, err)
		}
		var resp LeaseResponse
		dec := json.NewDecoder(w.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("body %q: response does not decode: %v", body, err)
		}
		// Claimable: pending (not ids[0]) and not leased to someone else.
		var want []string
		for i, id := range ids {
			if i == 0 || (i == 1 && req.Worker != "other") {
				continue
			}
			if len(want) < req.Max {
				want = append(want, id)
			}
		}
		if want == nil {
			want = []string{}
		}
		if !reflect.DeepEqual(resp.Cells, want) {
			t.Fatalf("body %q (worker %q, max %d) was granted %q, want %q", body, req.Worker, req.Max, resp.Cells, want)
		}
		if resp.Pending != len(ids)-1 || resp.Complete || resp.TTLSeconds != DefaultLeaseTTL.Seconds() {
			t.Fatalf("body %q: response %+v, want %d pending, not complete, TTL %v s", body, resp, len(ids)-1, DefaultLeaseTTL.Seconds())
		}
	})
}

// FuzzRunSpec drives PUT /v2/runs/{run} with arbitrary bodies against an
// empty fleet. Every body must get a 201 or a 400, never a panic or a
// 5xx. A 400 must create no run. A 201 must come from a body that decodes
// strictly into a RunSpec (no unknown field, nothing after the object) and
// create the run with exactly its cells, guarded by its token when it
// names one.
func FuzzRunSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		fl := NewFleet()
		w := httptest.NewRecorder()
		fl.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v2/runs/exp", bytes.NewReader(body)))
		ing, exists := fl.Run("exp")
		switch w.Code {
		case http.StatusBadRequest:
			if exists {
				t.Fatalf("rejected body %q created the run", body)
			}
			return
		case http.StatusCreated:
		default:
			t.Fatalf("body %q: status %d, want 201 or 400:\n%s", body, w.Code, w.Body)
		}
		var spec RunSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("body %q created a run but does not decode strictly: %v", body, err)
		}
		if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
			t.Fatalf("body %q created a run despite data after the spec", body)
		}
		if !exists {
			t.Fatalf("body %q: 201 but no run", body)
		}
		if got := ing.Status().Total; got != len(spec.Cells) {
			t.Fatalf("body %q: run has %d cells, spec names %d", body, got, len(spec.Cells))
		}
		if spec.Token == "" {
			return
		}
		for token, want := range map[string]int{"": http.StatusUnauthorized, spec.Token: http.StatusOK} {
			req := httptest.NewRequest(http.MethodGet, "/v2/runs/exp/status", nil)
			if token != "" {
				req.Header.Set("Authorization", "Bearer "+token)
			}
			w := httptest.NewRecorder()
			fl.ServeHTTP(w, req)
			if w.Code != want {
				t.Fatalf("body %q: status with token %q = %d, want %d", body, token, w.Code, want)
			}
		}
	})
}

// FuzzRegisterResponse hands RegisterRun arbitrary 201 bodies. A body must
// be accepted exactly when it decodes strictly into a RunStatus (no
// unknown field, nothing after the object), and then RegisterRun must
// return that status and report the run created.
func FuzzRegisterResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		client := &http.Client{Transport: replyTransport{http.StatusCreated, body}}
		got, created, err := RegisterRun(client, "http://h:1", "beta", "", RunSpec{Cells: []string{"a"}})

		capped := body
		if len(capped) > 64<<10 {
			capped = capped[:64<<10]
		}
		var want RunStatus
		dec := json.NewDecoder(bytes.NewReader(capped))
		dec.DisallowUnknownFields()
		strict := dec.Decode(&want) == nil && dec.Decode(new(json.RawMessage)) == io.EOF
		switch {
		case strict && err != nil:
			t.Fatalf("body %q decodes strictly but was rejected: %v", body, err)
		case !strict && err == nil:
			t.Fatalf("body %q was accepted but does not decode strictly", body)
		case strict && (!created || !reflect.DeepEqual(got, want)):
			t.Fatalf("body %q: got %+v created %v, want %+v created", body, got, created, want)
		}
	})
}
