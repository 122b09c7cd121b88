package bml

import (
	"fmt"
	"strings"

	"repro/internal/power"
	"repro/internal/profile"
)

// Combination is a machine multiset serving a target performance rate: for
// each architecture a number of fully loaded nodes, plus at most one
// partially loaded node carrying the remainder. This is the object the
// final step of the methodology produces and the scheduler reconfigures
// between.
type Combination struct {
	// Slots lists per-architecture node usage in Big→Little order. An
	// architecture with zero nodes still appears with Full == 0 so that
	// diffs between combinations are positionally stable.
	Slots []Slot
	// Infeasible is the residual rate (in metric units) that could not be
	// covered, which only happens when no architecture small enough exists
	// for the remainder grid. Zero in all normal operation.
	Infeasible float64
}

// Slot is the usage of one architecture within a combination.
type Slot struct {
	Arch profile.Arch
	// Full is the number of fully loaded nodes (each serving Arch.MaxPerf).
	Full int
	// PartialLoad is the rate carried by one extra partially loaded node;
	// zero means no partial node of this architecture.
	PartialLoad float64
}

// Nodes returns the total node count of the slot.
func (s Slot) Nodes() int {
	if s.PartialLoad > 0 {
		return s.Full + 1
	}
	return s.Full
}

// Power returns the slot's draw: full nodes at MaxPower, the partial node
// on the linear model.
func (s Slot) Power() power.Watts {
	p := power.Watts(float64(s.Full)) * s.Arch.MaxPower
	if s.PartialLoad > 0 {
		p += s.Arch.PowerAt(s.PartialLoad)
	}
	return p
}

// Power returns the combination's total draw.
func (c Combination) Power() power.Watts {
	var p power.Watts
	for _, s := range c.Slots {
		p += s.Power()
	}
	return p
}

// TotalNodes returns the total machine count.
func (c Combination) TotalNodes() int {
	var n int
	for _, s := range c.Slots {
		n += s.Nodes()
	}
	return n
}

// String renders the combination compactly, e.g.
// "1×paravance(full) + 1×chromebook@12.0 [208.1 W]".
func (c Combination) String() string {
	var parts []string
	for _, s := range c.Slots {
		if s.Full > 0 {
			parts = append(parts, fmt.Sprintf("%d×%s(full)", s.Full, s.Arch.Name))
		}
		if s.PartialLoad > 0 {
			parts = append(parts, fmt.Sprintf("1×%s@%.1f", s.Arch.Name, s.PartialLoad))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "∅")
	}
	str := strings.Join(parts, " + ")
	if c.Infeasible > 0 {
		str += fmt.Sprintf(" (infeasible remainder %.1f)", c.Infeasible)
	}
	return fmt.Sprintf("%s [%.1f W]", str, float64(c.Power()))
}
