// Package app models the application characterization of the paper's §III:
// before an application can be hosted on a BML infrastructure, it is
// classified by
//
//   - QoS criticality: Critical applications (banking, medical) have strict
//     performance requirements; Tolerant ones (enterprise services,
//     flexible deadlines) accept soft degradation; intermediate classes sit
//     in between;
//   - migratability: whether instances can move across machines, and at
//     what cost in time and energy ("we must evaluate the application's
//     migration overhead, both in terms of duration and energy
//     consumption");
//   - malleability: whether the application can be distributed over several
//     machines, and if so between which instance counts;
//   - load knowledge: Perfect (load known in advance), Partial (weekly/
//     diurnal patterns known, exact variations unknown), or Unknown (pure
//     prediction).
//
// The Spec type carries this classification; the scheduler consumes it to
// pick headroom, enforce instance bounds on combinations, and charge
// migration overheads during reconfigurations.
package app

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/power"
)

// Criticality is the QoS class of §III.
type Criticality int

// Criticality classes. Intermediate is the paper's "applications can lie
// in between these classes".
const (
	Tolerant Criticality = iota
	Intermediate
	Critical
)

// String renders the class name.
func (c Criticality) String() string {
	switch c {
	case Tolerant:
		return "tolerant"
	case Intermediate:
		return "intermediate"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Criticality(%d)", int(c))
	}
}

// DefaultHeadroom returns the provisioning safety margin conventionally
// associated with the class: tolerant applications run at the predicted
// load, critical ones keep 20% spare capacity.
func (c Criticality) DefaultHeadroom() float64 {
	switch c {
	case Critical:
		return 1.2
	case Intermediate:
		return 1.1
	default:
		return 1.0
	}
}

// LoadKnowledge is the §III classification of how well future load is
// known.
type LoadKnowledge int

// Load knowledge classes.
const (
	UnknownLoad LoadKnowledge = iota
	PartialLoad
	PerfectLoad
)

// String renders the class name.
func (k LoadKnowledge) String() string {
	switch k {
	case UnknownLoad:
		return "unknown"
	case PartialLoad:
		return "partial"
	case PerfectLoad:
		return "perfect"
	default:
		return fmt.Sprintf("LoadKnowledge(%d)", int(k))
	}
}

// Migration describes the cost of moving one application instance between
// machines. For the paper's stateless web server both costs are close to
// zero (stop + start + load-balancer update); a stateful service would
// carry state-transfer time and energy.
type Migration struct {
	// Migratable reports whether instances can move at all. When false
	// the scheduler must not retire a machine hosting the application.
	Migratable bool
	// Duration is the per-instance migration time.
	Duration time.Duration
	// Energy is the per-instance migration energy.
	Energy power.Joules
}

// Malleability bounds the number of concurrently running instances
// (§III: "if not [malleable], the minimum and maximum number of instances
// should be specified"). Zero MaxInstances means unbounded.
type Malleability struct {
	MinInstances int
	MaxInstances int
}

// Spec is the complete application characterization.
type Spec struct {
	// Name identifies the application in reports.
	Name string
	// Class is the QoS criticality.
	Class Criticality
	// Knowledge is how well the load is known in advance.
	Knowledge LoadKnowledge
	// Migration is the per-instance migration cost model.
	Migration Migration
	// Malleability bounds concurrent instance counts.
	Malleability Malleability
	// Headroom overrides the class default when positive.
	Headroom float64
}

// Validation errors.
var (
	ErrEmptyName        = errors.New("app: spec name must be non-empty")
	ErrInstanceBounds   = errors.New("app: malleability bounds must satisfy 0 <= min <= max (max 0 = unbounded)")
	ErrMigrationCost    = errors.New("app: migration costs must be non-negative")
	ErrImmobileMigCost  = errors.New("app: non-migratable application cannot carry migration costs")
	ErrHeadroomTooSmall = errors.New("app: headroom must be >= 1")
)

// Validate checks spec consistency.
func (s Spec) Validate() error {
	if s.Name == "" {
		return ErrEmptyName
	}
	m := s.Malleability
	if m.MinInstances < 0 || (m.MaxInstances != 0 && m.MaxInstances < m.MinInstances) {
		return fmt.Errorf("%w (min=%d max=%d)", ErrInstanceBounds, m.MinInstances, m.MaxInstances)
	}
	if s.Migration.Duration < 0 || !s.Migration.Energy.IsValid() {
		return ErrMigrationCost
	}
	if !s.Migration.Migratable && (s.Migration.Duration > 0 || s.Migration.Energy > 0) {
		return ErrImmobileMigCost
	}
	if s.Headroom != 0 && (s.Headroom < 1 || math.IsNaN(s.Headroom) || math.IsInf(s.Headroom, 0)) {
		return ErrHeadroomTooSmall
	}
	return nil
}

// EffectiveHeadroom returns the explicit headroom or the class default.
func (s Spec) EffectiveHeadroom() float64 {
	if s.Headroom >= 1 {
		return s.Headroom
	}
	return s.Class.DefaultHeadroom()
}

// StatelessWebServer returns the paper's target application: tolerant-ish
// QoS (the evaluation accepts brief boot-window shortfalls), trivially
// migratable (stop + start + balancer update, no state), fully malleable,
// with partially known load (diurnal/weekly patterns).
func StatelessWebServer() Spec {
	return Spec{
		Name:      "stateless-web",
		Class:     Tolerant,
		Knowledge: PartialLoad,
		Migration: Migration{Migratable: true, Duration: time.Second, Energy: 5},
	}
}
