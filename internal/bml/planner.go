package bml

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/profile"
)

// Planner implements the final step of the methodology: computing the ideal
// BML combination for a target performance rate. The paper frames it as a
// bin-packing variant with a single arbitrarily divisible object: fill Big
// nodes completely first (architectures are most energy efficient fully
// loaded), then use the minimum-utilization thresholds to pick the class
// that serves the remainder.
//
// A Planner is immutable apart from its memo, and safe for concurrent use.
// The memo holds the exact table of Exact: 8 bytes per unit of the unit
// rate grid, covering exactly the largest LowerBound peak the planner has
// served. For a largest peak of R units it is 8 × R bytes (5 MB for the
// paper grid's largest peak, 625,000 units); when a larger peak replaces
// it, the old table stays live until its last view is dropped.
type Planner struct {
	candidates []profile.Arch    // Big→Little
	thresholds []Threshold       // aligned with candidates
	removals   []Removal         // audit trail of Steps 2–3 filtering
	roles      map[string]string // name → Big/Medium/Little label
	inventory  map[string]int    // optional per-class node limits; nil = unlimited
	step       float64
	exact      exactMemo // the exact table, shared by every Exact view
}

// PlannerOption customizes planner construction.
type PlannerOption func(*plannerConfig)

type plannerConfig struct {
	step        float64
	inventory   map[string]int
	mode        ThresholdMode
	preFiltered bool
}

// WithStep sets the rate grid granularity (default 1, the paper's value).
func WithStep(step float64) PlannerOption {
	return func(c *plannerConfig) { c.step = step }
}

// WithInventory limits the number of nodes available per architecture name,
// the "existing heterogeneous infrastructure" variant the paper mentions in
// §IV-A. Architectures absent from the map are unlimited.
func WithInventory(limits map[string]int) PlannerOption {
	return func(c *plannerConfig) {
		c.inventory = make(map[string]int, len(limits))
		for k, v := range limits {
			c.inventory[k] = v
		}
	}
}

// WithThresholdMode selects Step 3 (Homogeneous) or Step 4 (Combinations,
// the default) threshold computation — exposed mainly for the ablation
// benchmarks.
func WithThresholdMode(m ThresholdMode) PlannerOption {
	return func(c *plannerConfig) { c.mode = m }
}

// WithPreFilteredCandidates skips Steps 2–3 filtering and treats the input
// architectures as the final candidate set (they must be valid; they will
// still be sorted Big→Little).
func WithPreFilteredCandidates() PlannerOption {
	return func(c *plannerConfig) { c.preFiltered = true }
}

// NewPlanner runs the full pipeline — Step 2 dominance filtering, Step 3
// pruning, Step 4 threshold computation — and returns a ready planner.
func NewPlanner(archs []profile.Arch, opts ...PlannerOption) (*Planner, error) {
	cfg := plannerConfig{step: 1, mode: Combinations}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.step <= 0 || math.IsNaN(cfg.step) || math.IsInf(cfg.step, 0) {
		return nil, fmt.Errorf("bml: invalid rate step %v", cfg.step)
	}
	var (
		cands   []profile.Arch
		removed []Removal
		err     error
	)
	if cfg.preFiltered {
		for _, a := range archs {
			if err := a.Validate(); err != nil {
				return nil, err
			}
		}
		cands = SortByPerf(archs)
	} else {
		cands, removed, err = SelectCandidates(archs, cfg.step)
		if err != nil {
			return nil, err
		}
	}
	ths, err := ComputeThresholds(cands, cfg.mode, cfg.step)
	if err != nil {
		return nil, err
	}
	return &Planner{
		candidates: cands,
		thresholds: ths,
		removals:   removed,
		roles:      RoleNames(cands),
		inventory:  cfg.inventory,
		step:       cfg.step,
	}, nil
}

// Candidates returns the surviving classes in Big→Little order.
func (p *Planner) Candidates() []profile.Arch {
	return append([]profile.Arch(nil), p.candidates...)
}

// Thresholds returns the per-class minimum-utilization thresholds.
func (p *Planner) Thresholds() []Threshold {
	return append([]Threshold(nil), p.thresholds...)
}

// Removals returns the audit trail of architectures discarded in Steps 2–3.
func (p *Planner) Removals() []Removal {
	return append([]Removal(nil), p.removals...)
}

// Role returns the Big/Medium/Little label of a surviving class.
func (p *Planner) Role(name string) string { return p.roles[name] }

// Big returns the most powerful surviving class.
func (p *Planner) Big() profile.Arch { return p.candidates[0] }

// Little returns the least powerful surviving class.
func (p *Planner) Little() profile.Arch { return p.candidates[len(p.candidates)-1] }

// MaxRate returns the largest rate the planner can serve, which is infinite
// without inventory limits and the inventory capacity otherwise.
func (p *Planner) MaxRate() float64 {
	if p.inventory == nil {
		return math.Inf(1)
	}
	var cap float64
	for _, a := range p.candidates {
		n, ok := p.inventory[a.Name]
		if !ok {
			return math.Inf(1)
		}
		cap += float64(n) * a.MaxPerf
	}
	return cap
}

// available returns how many more nodes of candidate i may be added to
// the full nodes counted so far.
func (p *Planner) available(full []int, i int) int {
	limit, ok := p.inventory[p.candidates[i].Name]
	if !ok {
		return math.MaxInt32
	}
	return max(limit-full[i], 0)
}

// Combination computes the ideal BML combination for the target rate:
// completely filled Big nodes first, then the threshold-guided choice for
// the remainder, recursively. Rates are rounded up to the grid. A zero or
// negative rate yields the empty combination (everything switched off).
func (p *Planner) Combination(rate float64) Combination {
	var buf [8]int
	full := p.countVector(&buf)
	partial, load, infeasible := p.place(rate, full)
	c := Combination{Slots: make([]Slot, len(p.candidates)), Infeasible: infeasible}
	for i, a := range p.candidates {
		c.Slots[i] = Slot{Arch: a, Full: full[i]}
	}
	if load > 0 {
		c.Slots[partial].PartialLoad = load
	}
	return c
}

// countVector returns a zeroed vector of one node count per candidate,
// in buf when it fits: room for the paper's candidates without a heap
// allocation.
func (p *Planner) countVector(buf *[8]int) []int {
	if n := len(p.candidates); n <= len(buf) {
		return buf[:n]
	}
	return make([]int, len(p.candidates))
}

// place is the placement behind Combination, PowerAt and every Lookup. It rounds
// rate up to the grid and assigns it across the candidates, honoring
// thresholds and inventory limits: it adds into full (zeroed, one entry
// per candidate) the fully loaded nodes of each, and returns the candidate
// carrying the remainder on one partially loaded node with that node's
// load (zero: no partial node), and the rate no admissible candidate could
// cover.
func (p *Planner) place(rate float64, full []int) (partial int, load, infeasible float64) {
	if rate <= 0 || math.IsNaN(rate) {
		return 0, 0, 0
	}
	const eps = 1e-9
	// Round the demand up to the grid: a fractional residual still needs
	// capacity.
	rem := math.Ceil(rate/p.step-1e-9) * p.step
	from := 0
	for rem > eps {
		// Pick the biggest admissible class whose threshold is at or below
		// the remainder; fall back to the littlest admissible class when
		// none qualifies (remainder below every threshold).
		chosen := -1
		for j := from; j < len(p.candidates); j++ {
			if p.available(full, j) == 0 {
				continue
			}
			if p.thresholds[j].Rate <= rem+eps {
				chosen = j
				break
			}
		}
		if chosen == -1 {
			for j := len(p.candidates) - 1; j >= from; j-- {
				if p.available(full, j) > 0 {
					chosen = j
					break
				}
			}
		}
		if chosen == -1 {
			return 0, 0, rem
		}
		a := p.candidates[chosen]
		if rem < a.MaxPerf-eps {
			// Below one full node: a single partially loaded node.
			return chosen, rem, 0
		}
		if n := min(int(math.Floor(rem/a.MaxPerf+eps)), p.available(full, chosen)); n > 0 {
			full[chosen] += n
			rem -= float64(n) * a.MaxPerf
			if rem < eps {
				rem = 0
			}
		}
		// An exhausted class drops out through available(); otherwise the
		// remainder is below one full node, and the next iteration picks
		// the right class (possibly this one, as a partial node).
		if p.available(full, chosen) > 0 {
			from = chosen
		}
	}
	return 0, 0, 0
}

// PowerAt returns the power of the ideal combination at rate — the quantity
// plotted as "BML combination" in Figure 4. It sums the placement's slots
// as Combination(rate).Power() does, without building the combination.
func (p *Planner) PowerAt(rate float64) power.Watts {
	var buf [8]int
	full := p.countVector(&buf)
	partial, load, _ := p.place(rate, full)
	var sum power.Watts
	for i, a := range p.candidates {
		s := Slot{Arch: a, Full: full[i]}
		if i == partial {
			s.PartialLoad = load
		}
		sum += s.Power()
	}
	return sum
}

// Model adapts the planner to the power.Model interface over [0, maxRate],
// so proportionality metrics can be computed on the combination curve.
func (p *Planner) Model(maxRate float64) power.Model {
	return plannerModel{p: p, max: maxRate}
}

type plannerModel struct {
	p   *Planner
	max float64
}

func (m plannerModel) PowerAt(rate float64) power.Watts {
	if rate > m.max {
		rate = m.max
	}
	return m.p.PowerAt(rate)
}

func (m plannerModel) MaxPerf() float64 { return m.max }

// BMLLinear returns the reference model the paper introduces in Figure 4:
// idle power equal to Little's, maximum power and performance equal to
// Big's, linear in between — "an achievable goal" the BML combination
// approaches.
func (p *Planner) BMLLinear() *power.LinearModel {
	m, err := power.NewLinearModel(p.Little().IdlePower, p.Big().MaxPower, p.Big().MaxPerf)
	if err != nil {
		// Candidates passed validation, Little.Idle <= Little.Max <=
		// Big.Max by Step 2 filtering; this cannot fail.
		panic(fmt.Sprintf("bml: BMLLinear construction failed: %v", err))
	}
	return m
}
