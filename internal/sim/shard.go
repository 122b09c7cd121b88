package sim

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bml"
	"repro/internal/trace"
)

// This file is the deterministic grid sharder behind distributed sweeps:
// every SweepJob has a canonical cell ID derived only from what the job
// computes (scenario, name, fleet scale, trace fingerprint), and a cell's
// shard assignment is a pure hash of that ID. Any process that can
// enumerate the grid — a worker told "-shard 2/8", a coordinator
// validating merged results, a CI matrix job — therefore agrees on which
// cells belong to which shard without communicating, and re-running a
// shard reproduces exactly the same cell set (shards are resumable).

// ShardSpec selects one shard of a sharded sweep: shard Index of Count.
type ShardSpec struct {
	Index int // 0-based shard number
	Count int // total shards, >= 1
}

// Whole is the trivial spec covering the entire grid.
var Whole = ShardSpec{Index: 0, Count: 1}

// Validate checks the invariants 0 <= Index < Count.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("sim: shard count %d must be >= 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sim: shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses an "i/N" shard spec (shard i of N, 0-based). Malformed
// or out-of-range specs — "0/0", "3/2", negatives, non-numeric — are
// rejected rather than silently selecting nothing.
func ParseShard(s string) (ShardSpec, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return ShardSpec{}, fmt.Errorf("sim: shard spec %q: want \"i/N\" (e.g. 0/4)", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(s[:i]))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("sim: shard spec %q: bad index: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(s[i+1:]))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("sim: shard spec %q: bad count: %v", s, err)
	}
	spec := ShardSpec{Index: idx, Count: n}
	if err := spec.Validate(); err != nil {
		return ShardSpec{}, fmt.Errorf("sim: shard spec %q: %v", s, err)
	}
	return spec, nil
}

// TraceFingerprint returns the trace's stable content hash
// (trace.Trace.Fingerprint — cached on the trace, so grids that reuse one
// Trace across many cells hash it once). Cell IDs computed by independent
// workers match if and only if they simulated the same load. A nil trace
// fingerprints to 0.
func TraceFingerprint(tr *trace.Trace) uint64 {
	if tr == nil {
		return 0
	}
	return tr.Fingerprint()
}

// CellID returns the job's canonical cell identifier (schema v2):
//
//	<scenario>|<name>|fleet=<scale>|trace=<fingerprint>:<len>|cfg=<fingerprint>
//
// It is a pure function of the inputs that determine the cell's result, so
// two processes enumerating the same grid derive the same IDs, and a
// coordinator can validate a merged result set against the expected grid
// without re-running anything. The fleet scale is canonicalized (0 and 1
// both mean "unscaled") so a cell's identity matches its physics, and the
// trailing cfg= component — new in v2 — is ConfigFingerprint of the job's
// BML config, which lets configuration ablations (headroom, predictor,
// overhead-awareness) be grid axes instead of divergent workers silently
// merging into one report. The default config's fingerprint is a stable
// constant, so default cells keep one identity everywhere; the v1→v2 bump
// itself is pinned byte-for-byte by TestCellIDGoldenV1V2.
func CellID(j SweepJob) string {
	fs := j.FleetScale
	if fs == 0 {
		fs = 1
	}
	return fmt.Sprintf("%s|%s|fleet=%s|trace=%016x:%d|cfg=%016x",
		j.Scenario, j.Name, strconv.FormatFloat(fs, 'g', -1, 64),
		TraceFingerprint(j.Trace), traceLen(j.Trace), ConfigFingerprint(j.BML))
}

func traceLen(tr *trace.Trace) int {
	if tr == nil {
		return 0
	}
	return tr.Len()
}

// ShardOf returns the shard (in [0, count)) that owns the cell with the
// given canonical ID — an FNV-1a hash of the ID modulo the shard count, so
// assignment is independent of grid enumeration order.
func ShardOf(cellID string, count int) int {
	if count <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(cellID))
	return int(h.Sum64() % uint64(count))
}

// ShardJobs returns the sub-slice of jobs owned by spec, preserving grid
// order. The union of all spec.Count shards is exactly jobs, and the
// shards are pairwise disjoint (each cell hashes to one shard).
func ShardJobs(jobs []SweepJob, spec ShardSpec) ([]SweepJob, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Count == 1 {
		return jobs, nil
	}
	var out []SweepJob
	for _, j := range jobs {
		if ShardOf(CellID(j), spec.Count) == spec.Index {
			out = append(out, j)
		}
	}
	return out, nil
}

// CellIDs returns the canonical IDs of every job in grid order.
func CellIDs(jobs []SweepJob) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = CellID(j)
	}
	return ids
}

// Scenarios lists the four §V-C scenarios in the paper's reporting order —
// the scenario axis of every experiment grid.
var Scenarios = []Scenario{
	ScenarioUpperBoundGlobal,
	ScenarioUpperBoundPerDay,
	ScenarioBML,
	ScenarioLowerBound,
}

// TraceAxis is one named point on a grid's trace axis. Single-trace grids
// conventionally leave Name empty (the trace fingerprint in the cell ID
// carries identity); multi-trace grids need unique non-empty names because
// the name becomes part of the cell name and the report rows.
type TraceAxis struct {
	Name  string
	Trace *trace.Trace
}

// LoadTraceAxes reads each trace file into one point of a grid's trace
// axis, quantizing when quantize > 0. Axis points are named by base
// filename — THE naming contract between bmlsim workers and the bmlsweep
// coordinator (both call this; different paths to the same-named,
// same-content file still enumerate the same grid). Name validity
// (uniqueness, ID-safe characters) is Grid's job, so it is enforced in
// exactly one place — except base-filename collisions, which only this
// function can explain: two distinct paths like a/day.csv and b/day.csv
// would both become the axis name "day.csv", and Grid's "duplicate trace
// axis name" error could not tell the operator which files collided. The
// collision is rejected here, naming both full paths.
//
// Several files load concurrently, at most GOMAXPROCS at a time, and each
// loader also computes its trace's Fingerprint, which every cell ID
// needs, so neither cost is paid serially before a grid's first cell. A
// failed load returns the error of the first failing file in argument
// order.
func LoadTraceAxes(paths []string, quantize int) ([]TraceAxis, error) {
	if err := CheckTraceFileNames(paths); err != nil {
		return nil, err
	}
	out := make([]TraceAxis, len(paths))
	errs := make([]error, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(paths)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(paths); i = int(next.Add(1) - 1) {
				tr, err := trace.ReadFile(paths[i], quantize)
				if err == nil {
					tr.Fingerprint()
				}
				out[i], errs[i] = TraceAxis{Name: filepath.Base(paths[i]), Trace: tr}, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CheckTraceFileNames rejects trace paths that share a base filename,
// naming both paths: the check LoadTraceAxes makes before it reads a file,
// for callers that load some of the files another way.
func CheckTraceFileNames(paths []string) error {
	firstPath := make(map[string]string, len(paths))
	for _, path := range paths {
		base := filepath.Base(path)
		if first, dup := firstPath[base]; dup {
			return fmt.Errorf("sim: trace paths %s and %s share the base filename %q, which names the trace axis — the grid cannot tell their cells apart; rename one file so every -trace has a distinct filename", first, path, base)
		}
		firstPath[base] = path
	}
	return nil
}

// Grid enumerates the full scenario × trace × fleet × config experiment
// grid: for every trace, every fleet target (0 = paper scale), and every
// config, the four §V-C scenarios. The three bound scenarios (UpperBound
// Global/PerDay, LowerBound) do not consume the BML config, so they are
// enumerated once per trace × fleet — under the zero config, which is what
// their cell IDs fingerprint — rather than once per config: a cell's
// identity matches its physics, and the grid never re-simulates a bound
// because an ablation knob it cannot see changed. A trace × fleet × config
// grid therefore has traces × fleets × (3 + configs) cells. Enumeration
// order — and therefore cell naming — is deterministic, so independent
// worker processes given the same inputs build identical grids and can
// shard them without coordination.
func Grid(traces []TraceAxis, planner *bml.Planner, configs []ConfigAxis, fleets []int, opts ...Option) ([]SweepJob, error) {
	if len(traces) == 0 || planner == nil {
		return nil, fmt.Errorf("sim: grid needs at least one trace and a planner")
	}
	seenTrace := map[string]bool{}
	for _, ta := range traces {
		if ta.Trace == nil {
			return nil, fmt.Errorf("sim: grid trace axis %q has a nil trace", ta.Name)
		}
		// The name travels through '|'-delimited cell IDs, whitespace-split
		// pending files, and CSV cells — same survival rules as config
		// names ("" is allowed only for the single unnamed trace).
		if ta.Name != "" && !configNameRE.MatchString(ta.Name) {
			return nil, fmt.Errorf("sim: trace axis name %q: want only letters, digits, '.', '_', '-'", ta.Name)
		}
		if len(traces) > 1 {
			if ta.Name == "" {
				return nil, fmt.Errorf("sim: every trace of a multi-trace grid needs a name")
			}
			if seenTrace[ta.Name] {
				return nil, fmt.Errorf("sim: duplicate trace axis name %q", ta.Name)
			}
			seenTrace[ta.Name] = true
		}
	}
	if len(configs) == 0 {
		configs = DefaultConfigs()
	}
	defaultFP := ConfigFingerprint(BMLConfig{})
	cfgFPs := make([]uint64, len(configs))
	seenCfg := map[string]bool{}
	seenFP := map[uint64]string{}
	for i, ca := range configs {
		if ca.Name == "" {
			return nil, fmt.Errorf("sim: every config of a grid needs a name")
		}
		if seenCfg[ca.Name] {
			return nil, fmt.Errorf("sim: duplicate config axis name %q", ca.Name)
		}
		seenCfg[ca.Name] = true
		cfgFPs[i] = ConfigFingerprint(ca.Config)
		if prev, dup := seenFP[cfgFPs[i]]; dup {
			// Same fingerprint = same physics = identical cell IDs: the
			// grid would expect the same cell twice.
			return nil, fmt.Errorf("sim: configs %q and %q are the same effective config (%s)",
				prev, ca.Name, CanonicalConfig(ca.Config))
		}
		seenFP[cfgFPs[i]] = ca.Name
	}
	if len(fleets) == 0 {
		fleets = []int{0}
	}
	var jobs []SweepJob
	for _, ta := range traces {
		base := planner.Combination(ta.Trace.Max()).TotalNodes()
		if base < 1 {
			base = 1
		}
		for _, n := range fleets {
			if n < 0 {
				return nil, fmt.Errorf("sim: fleet target %d must be >= 0", n)
			}
			scale := 0.0
			if n > 0 {
				scale = float64(n) / float64(base)
			}
			for ci, ca := range configs {
				for _, sc := range Scenarios {
					if sc != ScenarioBML && ci > 0 {
						continue // config-independent: enumerated under configs[0]'s pass only
					}
					j := SweepJob{
						Trace:      ta.Trace,
						TraceName:  ta.Name,
						Planner:    planner,
						Scenario:   sc,
						FleetScale: scale,
						Options:    opts,
					}
					segs := []string{string(sc)}
					if ta.Name != "" {
						segs = append(segs, "trace="+ta.Name)
					}
					segs = append(segs, fmt.Sprintf("fleet=%d", n))
					if sc == ScenarioBML {
						j.BML = ca.Config
						j.ConfigName = ca.Name
						// Keyed on physics, not the label: only truly
						// default-fingerprint cells keep the bare v1 names.
						if cfgFPs[ci] != defaultFP {
							segs = append(segs, "cfg="+ca.Name)
						}
					}
					j.Name = strings.Join(segs, "/")
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs, nil
}

// ParseFleets parses a comma-separated list of fleet targets ("0,100,1000")
// into Grid's fleet axis, deduplicated and sorted ascending so that
// every ordering of the same targets enumerates the same canonical grid.
func ParseFleets(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	seen := map[int]bool{}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("sim: fleet list %q: %v", s, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("sim: fleet list %q: target %d must be >= 0", s, n)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// RepeatConfigs expands a configuration axis into repeated grid cells.
// For repeats > 1 every config becomes `repeats` axis points named
// "<name>.r1" … "<name>.r<repeats>" whose RepeatSeed runs baseSeed,
// baseSeed+1, … — each repeat is therefore its own canonical v2 cell
// (individually cached, sharded, and resumable), and a fault-injecting
// config replays a distinct seeded fault schedule per repeat. repeats <= 1
// returns the axis unchanged: a single-repeat experiment keeps ordinary
// sweep cell identities, so its cells stay shareable with plain bmlsweep
// runs of the same grid.
//
// The second return value maps every expanded axis name back to the base
// config name it repeats (identity for repeats <= 1), so analysis stages
// can group repeat cells without reverse-engineering name suffixes.
//
// Seeds must stay nonzero across the whole range — RepeatSeed 0 means "not
// a repeat" and would collide with the unrepeated config's fingerprint —
// and input configs must not already carry a RepeatSeed (double expansion
// would silently merge distinct experiments' repeats).
func RepeatConfigs(configs []ConfigAxis, repeats int, baseSeed int64) ([]ConfigAxis, map[string]string, error) {
	baseOf := make(map[string]string, len(configs)*max(repeats, 1))
	if repeats <= 1 {
		for _, c := range configs {
			baseOf[c.Name] = c.Name
		}
		return configs, baseOf, nil
	}
	out := make([]ConfigAxis, 0, len(configs)*repeats)
	for _, c := range configs {
		if c.Config.RepeatSeed != 0 {
			return nil, nil, fmt.Errorf("sim: config %q already carries repeat-seed %d; cannot expand repeats twice", c.Name, c.Config.RepeatSeed)
		}
		for k := 0; k < repeats; k++ {
			seed := baseSeed + int64(k)
			if seed == 0 {
				return nil, nil, fmt.Errorf("sim: repeat seed range [%d, %d] includes 0 (reserved for unrepeated cells); pick a base seed >= 1", baseSeed, baseSeed+int64(repeats)-1)
			}
			rc := c
			rc.Name = fmt.Sprintf("%s.r%d", c.Name, k+1)
			rc.Config.RepeatSeed = seed
			baseOf[rc.Name] = c.Name
			out = append(out, rc)
		}
	}
	return out, baseOf, nil
}
