package sched

// Scheduler counters that only tests read.

// Adjustments returns how many targets were altered to satisfy the
// application's malleability bounds.
func (s *Scheduler) Adjustments() int { return s.adjustments }

// LastTarget returns the most recent target node counts keyed by
// architecture name, omitting zero counts (nil before the first decision).
func (s *Scheduler) LastTarget() map[string]int {
	if s.lastTarget == nil {
		return nil
	}
	return s.byName(s.lastTarget)
}
