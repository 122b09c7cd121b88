package bml

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/profile"
)

// Removal records why an architecture was discarded during candidate
// selection, so tools can report the filtering the way the paper narrates it
// ("Taurus removed: higher power than Paravance at lower performance").
type Removal struct {
	Arch   profile.Arch
	Step   int    // 2 for dominance filtering, 3 for never-crossing pruning
	Reason string // human-readable explanation
}

func (r Removal) String() string {
	return fmt.Sprintf("step %d removed %s: %s", r.Step, r.Arch.Name, r.Reason)
}

// ErrNoCandidates is returned when filtering leaves no usable architecture.
var ErrNoCandidates = errors.New("bml: no candidate architectures remain")

// SortByPerf returns a copy of the architectures in the Big→Little order of
// profile.CompareBigToLittle (decreasing MaxPerf, ties broken by name), the
// canonical "Big first" ordering every later step assumes.
func SortByPerf(archs []profile.Arch) []profile.Arch {
	out := make([]profile.Arch, len(archs))
	copy(out, archs)
	slices.SortFunc(out, profile.CompareBigToLittle)
	return out
}

// FilterDominated implements Step 2: it sorts architectures by decreasing
// maximum performance and removes every architecture whose maximum power
// consumption exceeds that of any faster architecture — such a machine can
// never improve energy proportionality. In the paper's illustrative set
// this removes D (MaxPower above A's); on the real Table I machines it
// removes Taurus.
//
// Returned candidates keep the Big→Little ordering.
func FilterDominated(archs []profile.Arch) (kept []profile.Arch, removed []Removal, err error) {
	if len(archs) == 0 {
		return nil, nil, ErrNoCandidates
	}
	for _, a := range archs {
		if verr := a.Validate(); verr != nil {
			return nil, nil, verr
		}
	}
	sorted := SortByPerf(archs)
	// Walk in decreasing-performance order, tracking the lowest MaxPower
	// seen among faster machines. An architecture survives only if it draws
	// strictly less at peak than every faster survivor (equal peak power at
	// lower performance is also useless, so <= removes it).
	minFasterPower := math.Inf(1)
	var minFasterName string
	for _, a := range sorted {
		if float64(a.MaxPower) >= minFasterPower {
			removed = append(removed, Removal{
				Arch: a,
				Step: 2,
				Reason: fmt.Sprintf("max power %.1f W is not below %s's %.1f W despite lower performance",
					float64(a.MaxPower), minFasterName, minFasterPower),
			})
			continue
		}
		kept = append(kept, a)
		minFasterPower = float64(a.MaxPower)
		minFasterName = a.Name
	}
	if len(kept) == 0 {
		return nil, removed, ErrNoCandidates
	}
	return kept, removed, nil
}

// PruneNonCrossing implements the pruning the paper applies during Step 3:
// an architecture whose profile "never crosses any other architecture's
// profile" — i.e. that is never the strictly cheapest way to serve any
// performance rate — is discarded. On the Table I machines this removes
// Graphene: at every rate within its range either a fleet of Chromebooks or
// a partially loaded Paravance draws less power.
//
// candidates must already be Step 2 output (Big→Little order, dominance
// filtered). step is the rate granularity (1.0 in the paper).
//
// The check for architecture x compares, at every rate r in (0, x.MaxPerf],
// the power of a single x node at r against (a) the optimal combination of
// the smaller surviving candidates at r and (b) a single partially loaded
// node of each bigger surviving candidate at r. Pruning iterates to a fixed
// point from the smallest architecture upward so that removal of one class
// re-exposes comparisons for the others.
func PruneNonCrossing(candidates []profile.Arch, step float64) (kept []profile.Arch, removed []Removal, err error) {
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, nil, fmt.Errorf("bml: invalid rate step %v", step)
	}
	if len(candidates) == 0 {
		return nil, nil, ErrNoCandidates
	}
	cur := make([]profile.Arch, len(candidates))
	copy(cur, candidates)

	for changed := true; changed; {
		changed = false
		// Examine from smallest to biggest: small classes are the ones the
		// jump-free comparison matters most for, and removing one changes
		// the optimal-combination baseline for the rest.
		for i := len(cur) - 1; i >= 0; i-- {
			if len(cur) == 1 {
				break // always keep the last remaining class
			}
			x := cur[i]
			others := make([]profile.Arch, 0, len(cur)-1)
			others = append(others, cur[:i]...)
			others = append(others, cur[i+1:]...)
			cheapest, err := everCheapest(x, others, step)
			if err != nil {
				return nil, removed, err
			}
			if cheapest {
				continue
			}
			removed = append(removed, Removal{
				Arch:   x,
				Step:   3,
				Reason: "profile never crosses any other candidate's: never the cheapest option at any rate",
			})
			cur = others
			changed = true
			break
		}
	}
	if len(cur) == 0 {
		return nil, removed, ErrNoCandidates
	}
	return cur, removed, nil
}

// everCheapest reports whether a single node of x is strictly cheaper, at
// some rate r in (0, x.MaxPerf], than both the optimal combination of the
// smaller architectures in others and every bigger architecture's single
// partially loaded node.
func everCheapest(x profile.Arch, others []profile.Arch, step float64) (bool, error) {
	var smaller, bigger []profile.Arch
	for _, o := range others {
		if o.MaxPerf < x.MaxPerf {
			smaller = append(smaller, o)
		} else {
			bigger = append(bigger, o)
		}
	}
	var opt *exactTable
	if len(smaller) > 0 {
		var err error
		if opt, err = newExactTable(smaller, x.MaxPerf, step); err != nil {
			return false, err
		}
	}
	for r := step; r <= x.MaxPerf+1e-9; r += step {
		px := float64(x.PowerAt(r))
		best := math.Inf(1)
		if opt != nil {
			best = opt.powerAt(r)
		}
		for _, b := range bigger {
			if p := float64(b.PowerAt(r)); p < best {
				best = p
			}
		}
		if px < best-1e-9 {
			return true, nil
		}
	}
	return false, nil
}

// SelectCandidates runs the full candidate pipeline (Step 2 dominance
// filtering followed by Step 3 never-crossing pruning) and returns the
// surviving classes in Big→Little order together with every removal record.
func SelectCandidates(archs []profile.Arch, step float64) ([]profile.Arch, []Removal, error) {
	kept, removed2, err := FilterDominated(archs)
	if err != nil {
		return nil, removed2, err
	}
	kept, removed3, err := PruneNonCrossing(kept, step)
	return kept, append(removed2, removed3...), err
}

// RoleNames labels the surviving candidates the way the paper does: the
// fastest is "Big", the slowest "Little", anything in between "Medium" (with
// an index when there are several). Input must be in Big→Little order.
func RoleNames(candidates []profile.Arch) map[string]string {
	roles := make(map[string]string, len(candidates))
	n := len(candidates)
	for i, a := range candidates {
		switch {
		case n == 1:
			roles[a.Name] = "Big"
		case i == 0:
			roles[a.Name] = "Big"
		case i == n-1:
			roles[a.Name] = "Little"
		case n == 3:
			roles[a.Name] = "Medium"
		default:
			roles[a.Name] = fmt.Sprintf("Medium%d", i)
		}
	}
	return roles
}
