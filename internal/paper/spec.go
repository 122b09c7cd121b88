// Package paper turns one declarative experiment spec (experiments.json)
// into the paper's evaluation artifacts: it enumerates each experiment's
// scenario × trace × fleet × config × repeat grid through the same
// sim.Grid/CellCache machinery the distributed sweeps use, validates the
// merged cells against the re-enumerated grid, and folds repeats into
// grouped mean/std/CI summary CSVs, text and LaTeX tables, and error-bar
// plots under paper_runs/<stamp>/<experiment>/. Because repeats enter the
// canonical cell identity (sim.RepeatConfigs), a warm re-run against the
// same cache recomputes nothing and reproduces the summary artifacts
// byte-for-byte.
package paper

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"repro/internal/sim"
)

// ErrSpec marks every spec parse/validation failure, so callers can map
// "the experiments.json is wrong" (bmlpaper exit 2) apart from "the runs
// came back incomplete" (exit 1) with errors.Is.
var ErrSpec = errors.New("paper: invalid spec")

// Spec is the root of experiments.json: a named list of experiments, run
// and reported in order.
type Spec struct {
	Experiments []Experiment `json:"experiments"`
}

// Experiment declares one grid. Axes mirror the bmlsweep grid flags (the
// two must enumerate identical grids for the cache to be shared), plus the
// repeat axis the paper pipeline adds.
type Experiment struct {
	// Name labels the experiment; it becomes the artifact directory name
	// and the experiment's prefix in logs and errors.
	Name string `json:"name"`

	// Traces lists trace files to replay (each is one point of the trace
	// axis, named by base filename). Empty means one generated World Cup
	// trace shaped by Days/Peak/TraceSeed.
	Traces []string `json:"traces,omitempty"`
	// Days, Peak, TraceSeed shape the generated trace when Traces is
	// empty: days to generate (default 92), peak request rate (default
	// 5000), generator seed (default 1998) — the bmlsweep defaults.
	Days      int     `json:"days,omitempty"`
	Peak      float64 `json:"peak,omitempty"`
	TraceSeed int64   `json:"trace_seed,omitempty"`
	// Quantize holds the load constant over windows of this many seconds
	// (0 = raw 1 Hz trace).
	Quantize int `json:"quantize,omitempty"`

	// Fleets is the fleet-target axis (default [0]: the unscaled trace).
	Fleets []int `json:"fleets,omitempty"`
	// Configs is the BML config axis in the -configs grammar, e.g.
	// "default,name=h13:headroom=1.3" (empty = just the default config).
	Configs string `json:"configs,omitempty"`

	// Repeats runs every config as this many seeded repeat cells
	// (default 1). With a fault-injecting config, each repeat replays its
	// own fault schedule — seeded fault schedules as a grid axis.
	Repeats int `json:"repeats,omitempty"`
	// Seed is the first repeat's seed (default 1; repeat k uses Seed+k-1).
	// Must be >= 1: repeat seed 0 is reserved for unrepeated cells.
	Seed int64 `json:"seed,omitempty"`
}

// nameRE keeps experiment names safe everywhere they travel: artifact
// directory names, log lines, CSV cells.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Defaults mirroring the bmlsweep grid flags.
const (
	defaultDays      = 92
	defaultPeak      = 5000
	defaultTraceSeed = 1998
)

func (e Experiment) days() int {
	if e.Days == 0 {
		return defaultDays
	}
	return e.Days
}

func (e Experiment) peak() float64 {
	if e.Peak == 0 {
		return defaultPeak
	}
	return e.Peak
}

func (e Experiment) traceSeed() int64 {
	if e.TraceSeed == 0 {
		return defaultTraceSeed
	}
	return e.TraceSeed
}

func (e Experiment) repeats() int {
	if e.Repeats == 0 {
		return 1
	}
	return e.Repeats
}

func (e Experiment) seed() int64 {
	if e.Seed == 0 {
		return 1
	}
	return e.Seed
}

func (e Experiment) fleets() []int {
	if len(e.Fleets) == 0 {
		return []int{0}
	}
	return e.Fleets
}

// ParseSpec decodes and validates an experiments.json. Unknown fields are
// rejected — a typoed key silently defaulting is exactly the failure mode
// a declarative spec exists to prevent — and every validation failure
// wraps ErrSpec with the offending experiment's name.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	// Trailing garbage after the root object is a malformed file, not
	// extra experiments.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("%w: trailing data after the spec object", ErrSpec)
	}
	// An empty list means what an absent one does (the default axis), and
	// the spec keeps one form of it, so equal specs compare equal and
	// survive a JSON round trip.
	for i := range spec.Experiments {
		e := &spec.Experiments[i]
		if len(e.Traces) == 0 {
			e.Traces = nil
		}
		if len(e.Fleets) == 0 {
			e.Fleets = nil
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// LoadSpec reads and validates the experiments.json at path.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	defer f.Close()
	spec, err := ParseSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Validate checks every experiment against the axis grammars without
// running anything: a spec that validates enumerates a well-formed grid
// (trace files may still be missing at run time — that is an I/O error,
// not a spec error).
func (s Spec) Validate() error {
	if len(s.Experiments) == 0 {
		return fmt.Errorf("%w: no experiments", ErrSpec)
	}
	seen := map[string]bool{}
	for i, e := range s.Experiments {
		if e.Name == "" {
			return fmt.Errorf("%w: experiment %d has no name", ErrSpec, i)
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("%w: experiment %q: %s", ErrSpec, e.Name, fmt.Sprintf(format, args...))
		}
		if !nameRE.MatchString(e.Name) {
			return bad("name must use only letters, digits, '.', '_', '-'")
		}
		if seen[e.Name] {
			return bad("duplicate experiment name")
		}
		seen[e.Name] = true
		for _, t := range e.Traces {
			if strings.TrimSpace(t) == "" {
				return bad("empty trace path")
			}
		}
		if e.Days < 0 || (len(e.Traces) > 0 && e.Days != 0) {
			return bad("days=%d: want > 0, and only without trace files", e.Days)
		}
		if e.Peak < 0 || (len(e.Traces) > 0 && e.Peak != 0) {
			return bad("peak=%g: want > 0, and only without trace files", e.Peak)
		}
		if e.TraceSeed != 0 && len(e.Traces) > 0 {
			return bad("trace_seed applies only to generated traces")
		}
		if e.Quantize < 0 {
			return bad("quantize=%d: want >= 0", e.Quantize)
		}
		for _, n := range e.Fleets {
			if n < 0 {
				return bad("fleet target %d: want >= 0", n)
			}
		}
		configs, err := sim.ParseConfigs(e.Configs)
		if err != nil {
			return bad("%v", err)
		}
		if e.Repeats < 0 {
			return bad("repeats=%d: want >= 1", e.Repeats)
		}
		if e.Seed < 0 {
			return bad("seed=%d: want >= 1 (repeat seed 0 is reserved for unrepeated cells)", e.Seed)
		}
		if e.Seed != 0 && e.repeats() <= 1 {
			return bad("seed applies only with repeats > 1")
		}
		if _, _, err := sim.RepeatConfigs(configs, e.repeats(), e.seed()); err != nil {
			return bad("%v", err)
		}
	}
	return nil
}
