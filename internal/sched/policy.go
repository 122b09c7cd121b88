package sched

import (
	"math"

	"repro/internal/profile"
)

// This file implements the two scheduler extensions the paper's conclusion
// names as future work, plus the §III application constraints:
//
//   - Overhead-aware decisions ("take in account their corresponding
//     overheads when taking reconfiguration decisions"): before committing
//     a reconfiguration that is not needed for capacity, the scheduler
//     estimates the steady-state power saving over an amortization horizon
//     and compares it against the transition energy (On/Off plus
//     application migration). Reconfigurations that cannot amortize are
//     skipped, which also suppresses flapping between near-equal
//     combinations.
//
//   - Malleability enforcement: the target combination's node count is kept
//     within the application's [MinInstances, MaxInstances] bounds — padded
//     with Little nodes below the minimum, consolidated onto the fewest
//     Big nodes above the maximum.

// targetFor writes the ideal combination's node counts for the predicted
// rate into the scheduler's want vector, adjusted to satisfy the
// application's instance bounds, and reports whether an adjustment
// happened.
func (s *Scheduler) targetFor(predicted float64) ([]int, bool) {
	counts := s.table.Counts(predicted, s.want)
	s.want = counts
	if s.app == nil {
		return counts, false
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	min := s.app.Malleability.MinInstances
	max := s.app.Malleability.MaxInstances
	adjusted := false
	archs := s.cl.Architectures() // Big→Little
	if total < min {
		// Pad with Little nodes: extra instances of the stateless app on
		// idle Littles cost the least power.
		counts[len(counts)-1] += min - total
		total = min
		adjusted = true
	}
	if max != 0 && total > max {
		// Consolidate: serve the predicted rate on the fewest possible
		// nodes, Big first. This can exceed the ideal power but respects
		// the instance bound.
		consolidate(counts, archs, predicted, max)
		adjusted = true
	}
	return counts, adjusted
}

// consolidate writes into counts the packing of the rate onto at most
// maxNodes nodes, biggest first. If even all-Big cannot fit within the
// bound, the bound wins and capacity is sacrificed (the QoS tracker will
// record the shortfall).
func consolidate(counts []int, archs []profile.Arch, rate float64, maxNodes int) {
	clear(counts)
	if maxNodes <= 0 || rate <= 0 {
		return
	}
	if n := min(archs[0].NodesFor(rate), maxNodes); n > 0 {
		counts[0] = n
	}
}

// reconfigurationWorthIt applies the amortization test: the reconfiguration
// from the current fleet to target is worthwhile if the power saved while
// serving the predicted rate, integrated over the amortization horizon,
// exceeds the switching energy (On/Off transitions plus application
// migration). Capacity-increasing reconfigurations bypass the test — QoS
// always wins.
func (s *Scheduler) reconfigurationWorthIt(current, target []int, predicted float64) bool {
	if s.fleetCapacity(current) < predicted {
		return true // needed for capacity; never defer
	}
	curPower := s.fleetPowerAt(current, predicted)
	newPower := s.fleetPowerAt(target, predicted)
	saving := curPower - newPower // Watts
	cost := s.switchEnergy(current, target)
	return saving*s.amortizeSeconds > cost
}

// fleetCapacity sums the maximum rate of the counted nodes.
func (s *Scheduler) fleetCapacity(counts []int) float64 {
	var cap float64
	for i, a := range s.cl.Architectures() {
		cap += float64(counts[i]) * a.MaxPerf
	}
	return cap
}

// fleetPowerAt estimates the power of serving load on the given fleet with
// fill-biggest-first dispatch (the cluster's policy).
func (s *Scheduler) fleetPowerAt(counts []int, load float64) float64 {
	var p float64
	remaining := load
	for i, a := range s.cl.Architectures() { // Big→Little
		for range counts[i] {
			share := math.Min(remaining, a.MaxPerf)
			p += float64(a.PowerAt(share))
			remaining -= share
		}
	}
	return p
}

// switchEnergy totals the transition energy of moving from one count
// vector to another: boots, shutdowns, and per-displaced-instance migration.
// Released machines are charged their round trip (off now plus the boot
// that brings them back later): on a varying load a machine switched off is
// eventually needed again, and ignoring the return boot makes almost every
// scale-down look free, defeating the amortization test.
func (s *Scheduler) switchEnergy(from, to []int) float64 {
	var total float64
	var displaced int
	for i, a := range s.cl.Architectures() {
		delta := to[i] - from[i]
		switch {
		case delta > 0:
			total += float64(delta) * float64(a.OnEnergy)
		case delta < 0:
			total += float64(-delta) * float64(a.OffEnergy+a.OnEnergy)
			displaced += -delta
		}
	}
	if s.app != nil && s.app.Migration.Migratable && displaced > 0 {
		total += float64(displaced) * float64(s.app.Migration.Energy)
	}
	return total
}
