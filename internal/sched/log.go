package sched

// Decision is one entry of the scheduler's decision log: what was
// predicted, what the target combination was, and how many switch actions
// the decision started. The log is the artifact an operator inspects to
// understand why the fleet changed shape.
type Decision struct {
	// Time is the simulation second the decision was taken at.
	Time int
	// Predicted is the (headroom-scaled) load forecast that drove the
	// decision.
	Predicted float64
	// Target is the decided node-count map (per architecture name).
	Target map[string]int
	// SwitchOns and SwitchOffs are the actions started by the decision's
	// grow phase (the deferred retire phase is attributed to the same
	// decision when it executes).
	SwitchOns  int
	SwitchOffs int
}

// defaultLogCap bounds the in-memory decision log; old entries are dropped
// FIFO beyond it.
const defaultLogCap = 4096

// record is one retained log entry: a Decision with its target kept as
// the scheduler's count vector, keyed by name only when the log is read.
type record struct {
	time                  int
	predicted             float64
	target                []int // Big→Little; never modified once recorded
	switchOns, switchOffs int
}

// recordDecision appends to the bounded log.
func (s *Scheduler) recordDecision(r record) {
	if s.logCap == 0 {
		return
	}
	if len(s.log) >= s.logCap {
		// Drop the oldest half rather than shifting one-by-one each call.
		keep := s.logCap / 2
		copy(s.log, s.log[len(s.log)-keep:])
		s.log = s.log[:keep]
	}
	s.log = append(s.log, r)
}

// DecisionLog returns the retained decisions, oldest first. Each call
// builds fresh Target maps, so callers may modify what they get.
func (s *Scheduler) DecisionLog() []Decision {
	out := make([]Decision, len(s.log))
	for i, r := range s.log {
		out[i] = Decision{
			Time:       r.time,
			Predicted:  r.predicted,
			Target:     s.byName(r.target),
			SwitchOns:  r.switchOns,
			SwitchOffs: r.switchOffs,
		}
	}
	return out
}
