package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
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
	coordClient        // client, token and worker identity
	run         string // named run (resolved into endpoint by NewHTTPSink)
	endpoint    string
	batchCap    int
	retries     int
	backoff     time.Duration
	sleep       func(time.Duration) // test hook
	batch       []CellRecord
	complete    atomic.Bool // an acknowledgement said the run is complete
}

// SinkOption configures a coordinator client: an HTTPSink, and through
// NewHTTPCache and OpenCellCache an HTTPCache, so one option list
// addresses every call a command makes to its coordinator.
type SinkOption func(*HTTPSink)

// WithSinkClient substitutes the HTTP client (timeouts, TLS trust, test
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
// requests go to <base>/v2/runs/{run}/cells instead of the default-run
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

// NewHTTPSink builds a sink for the coordinator at base (e.g.
// "http://127.0.0.1:8080"). The ingest path is schema-versioned, resolved
// by apiEndpoint after the options (a WithSinkRun run name changes it).
func NewHTTPSink(base string, opts ...SinkOption) (*HTTPSink, error) {
	host, _ := os.Hostname()
	s := &HTTPSink{
		coordClient: coordClient{worker: fmt.Sprintf("%s:%d", host, os.Getpid())},
		batchCap:    1,
		retries:     5,
		backoff:     100 * time.Millisecond,
		sleep:       time.Sleep,
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

// Flush POSTs the buffered records. On success the buffer is cleared; on
// failure it is retained so the error is attributable to specific cells.
func (s *HTTPSink) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	if err := s.send(s.batch); err != nil {
		return err
	}
	s.batch = s.batch[:0]
	return nil
}

// send POSTs recs as one JSONL body, retrying transient failures with
// exponential backoff. It only reads the sink, so concurrent sends are
// safe.
func (s *HTTPSink) send(recs []CellRecord) error {
	var body bytes.Buffer
	for _, rec := range recs {
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
	rep, err := s.do(http.MethodPost, s.endpoint, "application/x-ndjson", payload, 64<<10)
	if err != nil {
		return err // network error: retryable
	}
	switch {
	case rep.code >= 500:
		return fmt.Errorf("coordinator returned %s", rep)
	case rep.code >= 400:
		return &sinkPermanentError{msg: "coordinator rejected batch: " + rep.String()}
	}
	// The ack is read on every post, so it decodes laxly: a strict decoder
	// costs five allocations and 2.3 KB more per response.
	var ack IngestResponse
	if err := json.Unmarshal(rep.body, &ack); err != nil {
		return fmt.Errorf("coordinator response unparsable: %v", err)
	}
	if ack.Unknown > 0 {
		return &sinkPermanentError{msg: fmt.Sprintf(
			"%d records foreign to the coordinator's grid (first: %s) — mismatched grid flags between worker and coordinator?",
			ack.Unknown, ack.FirstUnknown)}
	}
	if ack.Complete {
		s.complete.Store(true)
	}
	return nil
}

// RunComplete reports whether an acknowledgement has said the run is
// complete: every cell of its grid has a successful record. A claim worker
// told so stops; it does not claim again from a coordinator that may
// already be shutting down.
func (s *HTTPSink) RunComplete() bool { return s.complete.Load() }
