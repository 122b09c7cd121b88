package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
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
// /v2/runs/{run}/cells with WithSinkRun) for the coordinator's journaled
// success (404 = miss), and Put streams the record in exactly like a
// worker sink POST, where first-success-wins dedup makes concurrent or
// repeated writers harmless. A long-lived coordinator over a grid
// therefore doubles as a team-wide result cache for that grid.
type HTTPCache struct {
	s *HTTPSink // posts as cacheWorker with a write-back's retry budget
}

// cacheWorker is the identity write-backs post under, so a write-back
// never renews the leases of the claim worker whose cell it stores.
const cacheWorker = "cache-writeback"

// NewHTTPCache builds a cache client for the coordinator at base from the
// same options as a sink (client, run, token), resolving the same cells
// endpoint. Whatever worker identity the options name, write-backs post
// as cacheWorker, with 2 retries.
func NewHTTPCache(base string, opts ...SinkOption) (*HTTPCache, error) {
	s, err := NewHTTPSink(base, opts...)
	if err != nil {
		return nil, err
	}
	s.worker, s.retries = cacheWorker, 2
	return &HTTPCache{s: s}, nil
}

// Get fetches the coordinator's journaled success for id; 404 is a miss.
// The body is read up to the longest record line ReadCellRecords accepts.
func (h *HTTPCache) Get(id string) (CellRecord, bool, error) {
	endpoint := h.s.endpoint
	rep, err := h.s.do(http.MethodGet, endpoint+"?id="+url.QueryEscape(id), "", nil, maxRecordLine)
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: %w", endpoint, err)
	}
	if rep.code == http.StatusNotFound {
		return CellRecord{}, false, nil
	}
	if rep.code != http.StatusOK {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: GET ?id= returned %s", endpoint, rep.status)
	}
	recs, err := ReadCellRecords(bytes.NewReader(rep.body))
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: %w", endpoint, err)
	}
	if len(recs) != 1 {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: GET ?id= returned %d records, want 1", endpoint, len(recs))
	}
	rec := recs[0]
	if err := CheckCellSchema(rec); err != nil {
		return CellRecord{}, false, err
	}
	if rec.ID != id {
		return CellRecord{}, false, fmt.Errorf("sim: cache %s: asked for %s, got %s", endpoint, id, rec.ID)
	}
	if rec.Err != "" {
		return CellRecord{}, false, nil
	}
	return rec, true, nil
}

// Put streams the record to the coordinator like a worker sink would; a
// record foreign to the coordinator's grid is a hard error (the cache URL
// points at a coordinator for a different grid). A failed write-back is
// reported once and never re-sent with a later Put.
func (h *HTTPCache) Put(rec CellRecord) error {
	if rec.Err != "" {
		return nil
	}
	rec.Cached = false
	return h.s.send([]CellRecord{rec})
}

// OpenCellCache resolves a -cache flag value: an http:// or https:// URL
// opens the coordinator at that address as a shared HTTPCache (configured
// by the sink options — run name, token, TLS-aware client); anything else
// is a local directory path, created if needed, for which the options are
// irrelevant and ignored. All commands (bmlsim, bmlsweep, bmlpaper
// -cache) accept the same spellings.
func OpenCellCache(spec string, opts ...SinkOption) (CellCache, error) {
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
