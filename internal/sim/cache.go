package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// This file is the content-addressed result store behind incremental
// sweeps. Cell IDs are already pure functions of everything that
// determines a cell's result (scenario, fleet scale, trace fingerprint,
// config fingerprint — see CellID), so a successful CellRecord keyed by
// its canonical ID is valid forever: re-running the cell can only
// reproduce it. CellCache exploits that to make every sweep incremental —
// a second ablation run over the same traces skips every cell it has
// already paid for, and a one-line config edit recomputes only the edited
// config's cells, because only their cfg= fingerprint changed. Repeat
// cells (RepeatConfigs) ride the same mechanism: each repeat's seed is
// part of the canonical config serialization, so "repeats: 3" is just
// three cache entries, and re-running a paper experiment spec against a
// warm cache recomputes nothing.
//
// Two implementations share the interface: DirCache, a local directory
// holding one JSONL record per ID (atomic rename on write, schema-v2
// validated on read), and HTTPCache, which treats a bmlsweep ingest
// coordinator as a shared cache server (GET /v1/cells?id=... serves the
// coordinator's journaled successes; Put POSTs like a worker sink, so
// first-success-wins dedup keeps concurrent writers harmless).
//
// Only successful records are ever cached: a failure says nothing
// permanent about the cell (the next run may succeed), so Put silently
// skips records carrying an error and Get never returns one.

// CellCache is a content-addressed store of successful sweep cells keyed
// by canonical cell ID. Implementations must be safe for concurrent use:
// SweepStream's workers write back fresh successes from the emit path
// while other processes may be reading.
type CellCache interface {
	// Get returns the cached successful record for the canonical cell ID,
	// reporting whether one exists. A miss is (zero, false, nil); an error
	// means the cache itself is broken (unreadable entry, schema mismatch,
	// unreachable server) and the caller should stop rather than silently
	// recompute everything.
	Get(id string) (CellRecord, bool, error)
	// Put stores a successful record under its canonical ID. Records
	// carrying an error are skipped (not stored, no error): failures are
	// not facts about the cell. Storing a record that is already present
	// is allowed and idempotent — the IDs are content addresses, so both
	// copies describe the same result.
	Put(rec CellRecord) error
}

// cachePath maps a canonical cell ID to its file inside a DirCache. IDs
// contain '|', '/', and ':' — unusable in filenames — so the file is named
// by the SHA-256 of the ID: a content address for the content address.
// Get verifies the stored record's ID round-trips, so even a (practically
// impossible) hash collision is detected rather than served.
func cachePath(dir, id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".jsonl")
}

// DirCache is a local content-addressed cell store: one JSONL record per
// canonical cell ID, one file per record. Writes are atomic (temp file +
// rename), so a killed worker never leaves a half-written entry for a
// later run to trip over, and concurrent writers of the same cell both
// land a complete record (last rename wins — both describe the same
// result). Reads validate the record against the requested ID and this
// build's cell schema, so a cache directory written by an incompatible
// build fails loudly instead of poisoning a merge.
type DirCache struct {
	dir string
}

// NewDirCache opens (creating if needed) a cache directory.
func NewDirCache(dir string) (*DirCache, error) {
	if dir == "" {
		return nil, errors.New("sim: cache directory path is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: cache dir: %w", err)
	}
	return &DirCache{dir: dir}, nil
}

// Get reads the cached record for id, validating schema and identity.
func (c *DirCache) Get(id string) (CellRecord, bool, error) {
	f, err := os.Open(cachePath(c.dir, id))
	if os.IsNotExist(err) {
		return CellRecord{}, false, nil
	}
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache read: %w", err)
	}
	recs, rerr := ReadCellRecords(f)
	f.Close()
	if rerr != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache entry for %s: %w", id, rerr)
	}
	if len(recs) != 1 {
		return CellRecord{}, false, fmt.Errorf("sim: cache entry for %s holds %d records, want 1", id, len(recs))
	}
	rec := recs[0]
	if err := CheckCellSchema(rec); err != nil {
		// A v1 cache fed to a v2 build (or vice versa) is the same hard
		// incompatibility as a v1 journal: blow the cache away or use the
		// build that wrote it.
		return CellRecord{}, false, fmt.Errorf("sim: cache entry: %w", err)
	}
	if rec.ID != id {
		return CellRecord{}, false, fmt.Errorf("sim: cache entry ID %s does not match requested %s", rec.ID, id)
	}
	if rec.Err != "" {
		// Failures are never written by Put; one here means a foreign file
		// landed in the cache directory. Treat it as a miss so the cell is
		// recomputed (and the entry overwritten with a real success).
		return CellRecord{}, false, nil
	}
	return rec, true, nil
}

// Put atomically stores a successful record under its canonical ID.
func (c *DirCache) Put(rec CellRecord) error {
	if rec.Err != "" {
		return nil
	}
	if err := CheckCellSchema(rec); err != nil {
		return err
	}
	// The stored copy is canonical: the Cached flag describes how one
	// particular run obtained the record, not the record itself.
	rec.Cached = false
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sim: cache write: %w", err)
	}
	if err := WriteCellRecord(tmp, rec); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), cachePath(c.dir, rec.ID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: cache write: %w", err)
	}
	return nil
}

// HTTPCache treats a bmlsweep ingest coordinator as a shared cache
// server: Get asks GET /v1/cells?id=... (or the named run's
// /v2/runs/{run}/cells with WithCacheRun) for the coordinator's journaled
// success (404 = miss), and Put streams the record in exactly like a
// worker sink POST, where first-success-wins dedup makes concurrent or
// repeated writers harmless. A long-lived coordinator over a grid
// therefore doubles as a team-wide result cache for that grid.
type HTTPCache struct {
	endpoint string
	run      string // named run (resolved into endpoint by NewHTTPCache)
	token    string // bearer token sent with every request
	client   *http.Client
}

// CacheOption configures an HTTPCache. Options only apply to coordinator
// (http/https) caches; OpenCellCache ignores them for local directories.
type CacheOption func(*HTTPCache)

// WithCacheClient substitutes the HTTP client (timeouts, TLS trust, test
// servers).
func WithCacheClient(c *http.Client) CacheOption {
	return func(h *HTTPCache) { h.client = c }
}

// WithCacheRun addresses the named run on a multi-run fleet coordinator:
// reads and write-backs go to <base>/v2/runs/{run}/cells instead of the
// default-run /v1/cells. The empty string keeps the /v1 default.
func WithCacheRun(run string) CacheOption {
	return func(h *HTTPCache) { h.run = run }
}

// WithCacheToken sends `Authorization: Bearer <token>` with every request —
// the fleet's global token or the run's own. The empty string sends
// nothing.
func WithCacheToken(token string) CacheOption {
	return func(h *HTTPCache) { h.token = token }
}

// NewHTTPCache builds a cache client for the coordinator at base,
// resolving the schema-versioned cells endpoint the same way NewHTTPSink
// does (a WithCacheRun run name changes it).
func NewHTTPCache(base string, opts ...CacheOption) (*HTTPCache, error) {
	h := &HTTPCache{
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(h)
	}
	endpoint, err := apiEndpoint(base, h.run, "cells")
	if err != nil {
		return nil, err
	}
	h.endpoint = endpoint
	return h, nil
}

// Get fetches the coordinator's journaled success for id; 404 is a miss.
func (h *HTTPCache) Get(id string) (CellRecord, bool, error) {
	req, err := http.NewRequest(http.MethodGet, h.endpoint+"?id="+url.QueryEscape(id), nil)
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: %w", h.endpoint, err)
	}
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: %w", h.endpoint, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return CellRecord{}, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: GET ?id= returned %s", h.endpoint, resp.Status)
	}
	recs, err := ReadCellRecords(resp.Body)
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: %w", h.endpoint, err)
	}
	if len(recs) != 1 {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: GET ?id= returned %d records, want 1", h.endpoint, len(recs))
	}
	rec := recs[0]
	if err := CheckCellSchema(rec); err != nil {
		return CellRecord{}, false, err
	}
	if rec.ID != id {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: asked for %s, got %s", h.endpoint, id, rec.ID)
	}
	if rec.Err != "" {
		return CellRecord{}, false, nil
	}
	return rec, true, nil
}

// Put streams the record to the coordinator like a worker sink would; a
// record foreign to the coordinator's grid is a hard error (the cache URL
// points at a coordinator for a different grid).
func (h *HTTPCache) Put(rec CellRecord) error {
	if rec.Err != "" {
		return nil
	}
	rec.Cached = false
	s := &HTTPSink{
		endpoint: h.endpoint,
		token:    h.token,
		client:   h.client,
		batchCap: 1,
		retries:  2,
		backoff:  100 * time.Millisecond,
		sleep:    time.Sleep,
		worker:   "cache-writeback",
	}
	return s.Emit(rec)
}

// OpenCellCache resolves a -cache flag value: an http:// or https:// URL
// opens the coordinator at that address as a shared HTTPCache (configured
// by the options — run name, token, TLS-aware client); anything else is a
// local directory path, created if needed, for which the options are
// irrelevant and ignored. All commands (bmlsim, bmlsweep, bmlpaper
// -cache) accept the same spellings.
func OpenCellCache(spec string, opts ...CacheOption) (CellCache, error) {
	if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		return NewHTTPCache(spec, opts...)
	}
	return NewDirCache(spec)
}

// CacheStats is what a cache-aware stream saw: Hits were served straight
// from the cache (zero simulation), Misses were computed (and their
// successes written back).
type CacheStats struct {
	Hits   int
	Misses int
}

// SweepStreamToCache is the one place a result cache sits in front of
// simulation (bmlsim -sweep workers in shard and claim mode and the
// bmlpaper runner all stream through it). It runs jobs through
// SweepStream with the cache in front: every job whose canonical cell ID already has a successful
// cached record is emitted immediately (in grid order, marked
// Cached=true) without simulating anything, the remaining jobs stream
// through the worker pool as usual, and each fresh success is written
// back to the cache before it is emitted. The sink sees exactly one
// record per job either way, so merges of warm and cold runs validate
// identically — a cached record IS the stored cold-run record, so merged
// energies and counters are bit-identical, not just within tolerance.
// With a nil cache every job is simulated (and counted as a miss). The
// sink is closed (flushed) on every path.
func SweepStreamToCache(jobs []SweepJob, workers int, sink CellSink, cache CellCache) (CacheStats, error) {
	var stats CacheStats
	if sink == nil {
		return stats, errors.New("sim: SweepStreamToCache needs a sink")
	}
	misses := jobs
	var err error
	if cache != nil {
		misses = misses[:0:0]
		for _, j := range jobs {
			rec, ok, gerr := cache.Get(CellID(j))
			if gerr != nil {
				err = gerr
				break
			}
			if !ok {
				stats.Misses++
				misses = append(misses, j)
				continue
			}
			stats.Hits++
			rec.Cached = true
			if eerr := sink.Emit(rec); eerr != nil {
				err = eerr
				break
			}
		}
	} else {
		stats.Misses = len(jobs)
	}
	if err == nil {
		err = SweepStream(misses, workers, func(r SweepResult) error {
			rec := NewCellRecord(r)
			if cache != nil && r.Err == nil {
				// Write back before emitting: once the sink has acknowledged
				// a cell, a later run must be able to hit it.
				if perr := cache.Put(rec); perr != nil {
					return perr
				}
			}
			return sink.Emit(rec)
		})
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return stats, err
}
