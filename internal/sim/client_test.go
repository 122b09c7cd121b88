package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOneOptionSetDrivesEveryClientCall builds every coordinator client
// from one client, run and token — register, claim, a sink post, and a
// cache write-back and read — and checks on the wire that each addresses
// the same named run with the same token, that the sink and the claim
// carry the worker's identity, and that the cache posts as
// cache-writeback, so a write-back never renews the worker's leases.
func TestOneOptionSetDrivesEveryClientCall(t *testing.T) {
	jobs, recs := gridAndRecords(t)
	fleet := NewFleet(WithFleetAuth("fleet-secret"))
	type call struct{ method, path, auth, worker string }
	var (
		mu    sync.Mutex
		calls []call
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls = append(calls, call{r.Method, r.URL.Path, r.Header.Get("Authorization"), r.Header.Get(WorkerHeader)})
		mu.Unlock()
		fleet.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client, run, token := srv.Client(), "beta", "fleet-secret"
	opts := []SinkOption{WithSinkClient(client), WithSinkRun(run), WithSinkToken(token)}

	rs, created, err := RegisterRun(client, srv.URL, run, token, RunSpec{Cells: CellIDs(jobs)})
	if err != nil || !created || rs.Run != run || rs.Status.Total != len(jobs) {
		t.Fatalf("RegisterRun = %+v, created %v, %v", rs, created, err)
	}
	lr, err := ClaimCells(client, srv.URL, run, token, "w1", 1)
	if err != nil || len(lr.Cells) != 1 || lr.Cells[0] != recs[0].ID {
		t.Fatalf("ClaimCells = %+v, %v; want the first cell", lr, err)
	}
	sink, err := NewHTTPSink(srv.URL, append(opts, WithSinkWorker("w1"))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(recs[0]); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCellCache(srv.URL, append(opts, WithSinkWorker("w1"))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(recs[1]); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := cache.Get(recs[1].ID); err != nil || !ok || got.ID != recs[1].ID {
		t.Fatalf("cache Get after Put = %s, %v, %v", got.ID, ok, err)
	}

	bearer := "Bearer " + token
	want := []call{
		{http.MethodPut, "/v2/runs/beta", bearer, ""},
		{http.MethodPost, "/v2/runs/beta/lease", bearer, "w1"},
		{http.MethodPost, "/v2/runs/beta/cells", bearer, "w1"},
		{http.MethodPost, "/v2/runs/beta/cells", bearer, cacheWorker},
		{http.MethodGet, "/v2/runs/beta/cells", bearer, cacheWorker},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("requests on the wire:\n%v\nwant\n%v", calls, want)
	}
}

// TestHTTPCacheWriteBackRetriesOnce pins a write-back's retry budget: a
// Put the coordinator keeps failing is tried 3 times (1 + 2 retries) and
// reported, and the next Put posts only its own record.
func TestHTTPCacheWriteBackRetriesOnce(t *testing.T) {
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(body))
		if len(bodies) <= 3 {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer srv.Close()
	cache, err := NewHTTPCache(srv.URL, WithSinkClient(srv.Client()), withSinkRetries(-1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(testRecord("a")); err == nil || len(bodies) != 3 {
		t.Fatalf("Put against a failing coordinator = %v after %d posts, want an error after 3", err, len(bodies))
	}
	if err := cache.Put(testRecord("b")); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCellRecords(strings.NewReader(bodies[3]))
	if err != nil || len(recs) != 1 || recs[0].ID != "b" {
		t.Fatalf("second Put posted %q, want only record b", bodies[3])
	}
}

// TestRegisterRunResolvesLikeSink pins that RegisterRun accepts and
// refuses the URL spellings and run names a sink does: a bare base with
// or without a trailing slash reaches /v2/runs/{run}, while a /v1 base, a
// non-http scheme and an invalid or empty run name fail before any
// request is made.
func TestRegisterRunResolvesLikeSink(t *testing.T) {
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.Method+" "+r.URL.Path)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(RunStatus{Run: "beta"})
	}))
	defer srv.Close()
	spec := RunSpec{Cells: []string{"a"}}
	for _, base := range []string{srv.URL, srv.URL + "/"} {
		if rs, created, err := RegisterRun(srv.Client(), base, "beta", "", spec); err != nil || !created || rs.Run != "beta" {
			t.Errorf("RegisterRun(%q) = %+v, created %v, %v", base, rs, created, err)
		}
	}
	if want := []string{"PUT /v2/runs/beta", "PUT /v2/runs/beta"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("requests %v, want %v", paths, want)
	}
	for _, c := range []struct{ base, run, want string }{
		{srv.URL + "/v1", "beta", "give a bare coordinator URL"},
		{strings.Replace(srv.URL, "http://", "ftp://", 1), "beta", "want http:// or https://"},
		{srv.URL, "bad/name", "invalid run name"},
		{srv.URL, "", "needs its name"},
	} {
		if _, _, err := RegisterRun(srv.Client(), c.base, c.run, "", spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RegisterRun(%q, run %q) = %v, want an error naming %q", c.base, c.run, err, c.want)
		}
	}
	if len(paths) != 2 {
		t.Errorf("rejected spellings still sent requests: %v", paths[2:])
	}
}

// replyTransport answers every request with one canned response, so a
// client call's status handling and decoding run without a socket.
type replyTransport struct {
	code int
	body []byte
}

func (rt replyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: rt.code,
		Status:     fmt.Sprintf("%d %s", rt.code, http.StatusText(rt.code)),
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(rt.body)),
		Request:    r,
	}, nil
}

// TestRegisterResponseStrictAckLax pins the two decoding policies: the
// register response is strict (an unknown field or trailing data is an
// error), while the ack every sink post reads and the lease response every
// claim reads stay lax and accept an unknown field.
func TestRegisterResponseStrictAckLax(t *testing.T) {
	registerWith := func(body string) error {
		client := &http.Client{Transport: replyTransport{http.StatusOK, []byte(body)}}
		_, _, err := RegisterRun(client, "http://h:1", "beta", "", RunSpec{Cells: []string{"a"}})
		return err
	}
	if err := registerWith(`{"run":"beta","status":{"total":1,"pending":1}}` + "\n"); err != nil {
		t.Errorf("valid register response rejected: %v", err)
	}
	for _, body := range []string{`{"run":"beta","extra":1}`, `{"run":"beta","status":{"totl":1}}`, `{"run":"beta"} {}`, `{"run":"beta"}x`, ``} {
		if err := registerWith(body); err == nil {
			t.Errorf("register response %q accepted", body)
		}
	}

	client := &http.Client{Transport: replyTransport{http.StatusOK, []byte(`{"accepted":1,"pending":0,"complete":true,"newer":1}`)}}
	sink, err := NewHTTPSink("http://h:1", WithSinkClient(client))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(testRecord("a")); err != nil {
		t.Errorf("ack with an unknown field rejected: %v", err)
	}
	client = &http.Client{Transport: replyTransport{http.StatusOK, []byte(`{"cells":["a"],"pending":1,"newer":1}`)}}
	if lr, err := ClaimCells(client, "http://h:1", "default", "", "w", 1); err != nil || len(lr.Cells) != 1 {
		t.Errorf("lease response with an unknown field = %+v, %v", lr, err)
	}
}
