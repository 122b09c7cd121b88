package sim

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

// This file is the transport half of networked sweeps: CellSink abstracts
// "where a completed cell goes" so SweepStream can feed a local JSONL file,
// an HTTP ingest endpoint, or both at once, and a worker's streaming code
// never needs to know which. HTTPSink is the client side of the bmlsweep
// coordinator protocol (POST /v1/cells, the same JSONL CellRecord schema
// the -out files use), with retry/backoff so a grid survives transient
// network failures, and fail-fast on permanent rejections (a worker
// enumerating a different grid than its coordinator).

// CellSink consumes completed sweep cells. Emit is called serially (once
// per cell, from SweepStream's serialized emit path), so implementations
// need no locking of their own. Close flushes anything buffered and
// releases resources; a sink must be usable until Close returns.
type CellSink interface {
	Emit(CellRecord) error
	Close() error
}

// WriterSink streams each record to w as one JSON line — the -out file
// path expressed as a CellSink. It does not own w; callers close the
// underlying file themselves after Close returns.
type WriterSink struct{ w io.Writer }

// NewWriterSink wraps w as a CellSink.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Emit appends rec to the writer as one JSON line.
func (s *WriterSink) Emit(rec CellRecord) error { return WriteCellRecord(s.w, rec) }

// Close is a no-op: WriterSink buffers nothing and does not own its writer.
func (s *WriterSink) Close() error { return nil }

// MultiSink fans every record out to all member sinks in order — e.g. a
// local JSONL file for the audit trail plus an HTTP coordinator for live
// aggregation. The first emit error stops the fan-out (the stream will
// cancel anyway); Close closes every member and returns the first error.
type MultiSink []CellSink

// Emit hands rec to each member sink in order.
func (m MultiSink) Emit(rec CellRecord) error {
	for _, s := range m {
		if err := s.Emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// Close closes all member sinks, returning the first error.
func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sinkPermanentError marks a failure retrying cannot fix: a 4xx rejection
// or records the coordinator reports as foreign to its grid.
type sinkPermanentError struct{ msg string }

func (e *sinkPermanentError) Error() string { return e.msg }

// HTTPSink streams cell records to a bmlsweep ingest endpoint. Records are
// POSTed to <base>/v1/cells — or, with WithSinkRun, to the named run at
// <base>/v2/runs/{run}/cells — as JSON Lines, byte-identical to what a
// worker's -out file would hold, so the coordinator accepts either
// transport interchangeably. Transient failures (network errors, 5xx)
// retry with exponential backoff; permanent rejections (4xx — including a
// 401 from a missing or wrong bearer token — or a 200 whose accounting
// reports the records foreign to the coordinator's grid) fail immediately
// so a misconfigured worker dies loudly instead of hammering the
// coordinator.
//
// By default every record is flushed (POSTed) as it is emitted, so a
// worker killed mid-grid has already made each completed cell durable on
// the coordinator — the property resumable coordination depends on.
type HTTPSink struct {
	endpoint string
	run      string // named run (resolved into endpoint by NewHTTPSink)
	token    string // bearer token sent with every request
	client   *http.Client
	batchCap int
	retries  int
	backoff  time.Duration
	sleep    func(time.Duration) // test hook
	batch    []CellRecord
	worker   string // X-Bml-Worker identity for coordinator liveness and lease heartbeats
}

// SinkOption configures an HTTPSink.
type SinkOption func(*HTTPSink)

// WithSinkClient substitutes the HTTP client (timeouts, transports, test
// servers).
func WithSinkClient(c *http.Client) SinkOption {
	return func(s *HTTPSink) { s.client = c }
}

// WithSinkWorker overrides the worker identity sent with every POST (the
// X-Bml-Worker header), which is how the coordinator's per-remote liveness
// view (/v1/status "remotes") names this worker. The default is host:pid;
// bmlsim adds its shard spec so a stalled shard is identifiable.
func WithSinkWorker(id string) SinkOption {
	return func(s *HTTPSink) {
		if id != "" {
			s.worker = id
		}
	}
}

// WithSinkRun addresses the named run on a multi-run fleet coordinator:
// records POST to <base>/v2/runs/{run}/cells instead of the default-run
// /v1/cells. The empty string keeps the /v1 default.
func WithSinkRun(run string) SinkOption {
	return func(s *HTTPSink) { s.run = run }
}

// WithSinkToken sends `Authorization: Bearer <token>` with every request —
// the fleet's global token or the run's own. A coordinator that rejects it
// answers 401, which the sink treats as permanent (fail fast, no retries).
// The empty string sends nothing.
func WithSinkToken(token string) SinkOption {
	return func(s *HTTPSink) { s.token = token }
}

// apiEndpoint resolves a coordinator base URL plus an optional run name to
// one schema-versioned resource endpoint. With no run, a base without a
// path gets "/v1/<resource>" appended and a base that already names a
// /v1/ path is used as given; with a run, the base must be bare (the run
// name picks the /v2 path: "/v2/runs/{run}/<resource>"). Shared by
// HTTPSink (worker → coordinator streaming), HTTPCache (coordinator as
// cache server), and ClaimCells, so all accept the same -sink/-cache URL
// spellings.
func apiEndpoint(base, run, resource string) (string, error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("sim: sink URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("sim: sink URL %q: want http:// or https://", base)
	}
	if u.Host == "" {
		return "", fmt.Errorf("sim: sink URL %q: missing host", base)
	}
	trimmed := strings.TrimRight(base, "/")
	if run != "" {
		if u.Path != "" && u.Path != "/" {
			return "", fmt.Errorf("sim: sink URL %q: a named run picks the API path itself; give a bare coordinator URL with -run %s", base, run)
		}
		if !runNameOK(run) {
			return "", fmt.Errorf("sim: invalid run name %q (want [A-Za-z0-9._-]{1,128})", run)
		}
		return trimmed + "/v2/runs/" + url.PathEscape(run) + "/" + resource, nil
	}
	switch {
	case strings.HasSuffix(trimmed, "/v1"):
		// ".../v1" or ".../v1/" name the API root: complete the path.
		return trimmed + "/" + resource, nil
	case strings.Contains(u.Path, "/v1/"):
		// An explicit endpoint path is used as given (minus a trailing
		// slash the exact-match router would 404).
		return trimmed, nil
	default:
		return trimmed + "/v1/" + resource, nil
	}
}

// NewHTTPSink builds a sink for the coordinator at base (e.g.
// "http://127.0.0.1:8080"). The ingest path is schema-versioned, resolved
// by apiEndpoint after the options (a WithSinkRun run name changes it).
func NewHTTPSink(base string, opts ...SinkOption) (*HTTPSink, error) {
	host, _ := os.Hostname()
	s := &HTTPSink{
		client:   &http.Client{Timeout: 30 * time.Second},
		batchCap: 1,
		retries:  5,
		backoff:  100 * time.Millisecond,
		sleep:    time.Sleep,
		worker:   fmt.Sprintf("%s:%d", host, os.Getpid()),
	}
	for _, opt := range opts {
		opt(s)
	}
	endpoint, err := apiEndpoint(base, s.run, "cells")
	if err != nil {
		return nil, err
	}
	s.endpoint = endpoint
	return s, nil
}

// Emit buffers rec and flushes when the batch is full (immediately, at the
// default batch size of 1).
func (s *HTTPSink) Emit(rec CellRecord) error {
	s.batch = append(s.batch, rec)
	if len(s.batch) >= s.batchCap {
		return s.Flush()
	}
	return nil
}

// Flush POSTs the buffered records, retrying transient failures with
// exponential backoff. On success the buffer is cleared; on failure it is
// retained so the error is attributable to specific cells.
func (s *HTTPSink) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	var body bytes.Buffer
	for _, rec := range s.batch {
		if err := WriteCellRecord(&body, rec); err != nil {
			return err
		}
	}
	delay := s.backoff
	var lastErr error
	for attempt := 0; attempt <= s.retries; attempt++ {
		if attempt > 0 {
			s.sleep(delay)
			delay *= 2
		}
		err := s.post(body.Bytes())
		if err == nil {
			s.batch = s.batch[:0]
			return nil
		}
		var perm *sinkPermanentError
		if errors.As(err, &perm) {
			return fmt.Errorf("sim: sink %s: %w", s.endpoint, err)
		}
		lastErr = err
	}
	return fmt.Errorf("sim: sink %s: giving up after %d attempts: %w",
		s.endpoint, s.retries+1, lastErr)
}

// Close flushes any buffered records — the graceful-shutdown path a worker
// runs before exiting so interrupted runs lose nothing already computed.
func (s *HTTPSink) Close() error { return s.Flush() }

// post performs one POST of the JSONL payload and interprets the
// coordinator's response.
func (s *HTTPSink) post(payload []byte) error {
	req, err := http.NewRequest(http.MethodPost, s.endpoint, bytes.NewReader(payload))
	if err != nil {
		return &sinkPermanentError{msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(WorkerHeader, s.worker)
	if s.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.token)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err // network error: retryable
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	switch {
	case resp.StatusCode >= 500:
		return fmt.Errorf("coordinator returned %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	case resp.StatusCode >= 400:
		return &sinkPermanentError{msg: fmt.Sprintf("coordinator rejected batch: %s: %s",
			resp.Status, strings.TrimSpace(string(raw)))}
	}
	var ack IngestResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return fmt.Errorf("coordinator response unparsable: %v", err)
	}
	if ack.Unknown > 0 {
		return &sinkPermanentError{msg: fmt.Sprintf(
			"%d records foreign to the coordinator's grid (first: %s) — mismatched grid flags between worker and coordinator?",
			ack.Unknown, ack.FirstUnknown)}
	}
	return nil
}

// HTTPClientWithCA builds an HTTP client (default sink/cache timeout) that
// trusts the PEM certificates in caFile in addition to nothing else — the
// client half of a TLS coordinator (-tls-cert/-tls-key) using a
// self-signed or private-CA certificate, which is the normal deployment
// for an internal fleet service. An empty path returns a plain client.
func HTTPClientWithCA(caFile string) (*http.Client, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	if caFile == "" {
		return client, nil
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("sim: TLS CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("sim: TLS CA %s: no PEM certificates found", caFile)
	}
	client.Transport = &http.Transport{TLSClientConfig: &tls.Config{RootCAs: pool}}
	return client, nil
}
