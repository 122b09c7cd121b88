package ctrl

import (
	"sync"
	"time"
)

// FakeClock is a manually advanced Clock for unit tests. Timers created by
// After fire when Advance moves the clock past their deadline; BlockUntil
// lets a test wait for the controller to be parked on its timers before
// advancing, eliminating sleep-based synchronization.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
	blocked []blockWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

type blockWaiter struct {
	n  int
	ch chan struct{}
}

// NewFakeClock builds a fake clock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After registers a timer firing when the clock is advanced past d from
// the current fake time. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	c.notifyBlockedLocked()
	return ch
}

// Advance moves the clock forward by d and fires every timer whose
// deadline has passed, in deadline order.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for {
		idx := -1
		for i, w := range c.waiters {
			if !w.at.After(c.now) && (idx == -1 || w.at.Before(c.waiters[idx].at)) {
				idx = i
			}
		}
		if idx == -1 {
			return
		}
		w := c.waiters[idx]
		c.waiters = append(c.waiters[:idx], c.waiters[idx+1:]...)
		w.ch <- w.at
	}
}

// BlockUntil returns once at least n timers are pending on the clock. Use
// it to wait for the controller loop to park before calling Advance.
func (c *FakeClock) BlockUntil(n int) {
	c.mu.Lock()
	if len(c.waiters) >= n {
		c.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	c.blocked = append(c.blocked, blockWaiter{n: n, ch: ch})
	c.mu.Unlock()
	<-ch
}

func (c *FakeClock) notifyBlockedLocked() {
	kept := c.blocked[:0]
	for _, b := range c.blocked {
		if len(c.waiters) >= b.n {
			close(b.ch)
		} else {
			kept = append(kept, b)
		}
	}
	c.blocked = kept
}
