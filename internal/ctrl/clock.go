package ctrl

import "time"

// Clock abstracts wall time so the controller's run loop is testable at
// simulated speed. RealClock delegates to the time package; tests drive
// the loop with a clock they advance explicitly.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
