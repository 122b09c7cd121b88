package bml

// Test-side readings of a combination: the rate it serves and the rate its
// nodes could sustain fully loaded. Production reads node counts only.

// Rate returns the performance rate the slot serves.
func (s Slot) Rate() float64 {
	return float64(s.Full)*s.Arch.MaxPerf + s.PartialLoad
}

// Rate returns the performance rate the combination serves.
func (c Combination) Rate() float64 {
	var r float64
	for _, s := range c.Slots {
		r += s.Rate()
	}
	return r
}

// Capacity returns the maximum rate the combination's nodes could sustain
// if all were fully loaded.
func (c Combination) Capacity() float64 {
	var cap float64
	for _, s := range c.Slots {
		cap += float64(s.Nodes()) * s.Arch.MaxPerf
	}
	return cap
}

// Counts returns node counts keyed by architecture name.
func (c Combination) Counts() map[string]int {
	m := make(map[string]int, len(c.Slots))
	for _, s := range c.Slots {
		if n := s.Nodes(); n > 0 {
			m[s.Arch.Name] = n
		}
	}
	return m
}

// nodes returns the node count of each slot, in slot order.
func (c Combination) nodes() []int {
	n := make([]int, len(c.Slots))
	for i, s := range c.Slots {
		n[i] = s.Nodes()
	}
	return n
}
