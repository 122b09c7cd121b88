package power

import "fmt"

// Breakdown splits consumed energy into the three components the paper's
// argument revolves around: transition energy (On/Off overheads), idle
// energy (the static cost that over-provisioned data centers waste), and
// dynamic energy (the load-proportional part). Energy proportionality
// means pushing the idle share toward zero.
type Breakdown struct {
	Transition Joules
	Idle       Joules
	Dynamic    Joules
}

// Total returns the summed energy.
func (b Breakdown) Total() Joules { return b.Transition + b.Idle + b.Dynamic }

// Add folds another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Transition += o.Transition
	b.Idle += o.Idle
	b.Dynamic += o.Dynamic
}

// IdleShare returns the idle fraction of the total (0 when empty).
func (b Breakdown) IdleShare() float64 {
	if t := b.Total(); t > 0 {
		return float64(b.Idle) / float64(t)
	}
	return 0
}

// String renders the split with percentages.
func (b Breakdown) String() string {
	t := b.Total()
	if t == 0 {
		return "breakdown: empty"
	}
	return fmt.Sprintf("transition %v (%.1f%%), idle %v (%.1f%%), dynamic %v (%.1f%%)",
		b.Transition, 100*float64(b.Transition)/float64(t),
		b.Idle, 100*float64(b.Idle)/float64(t),
		b.Dynamic, 100*float64(b.Dynamic)/float64(t))
}
