package webapp

import "fmt"

// Hooks and counters that only tests use: the transition in-flight cap,
// the shed and per-backend failure counts, the handlers' served counts,
// and the rate limiter's non-blocking take and rate.

// SetTransitionInflightLimit overrides the in-flight request cap applied
// while the farm is mid-transition.
func (lb *LoadBalancer) SetTransitionInflightLimit(n int) error {
	if n < 1 {
		return fmt.Errorf("webapp: invalid transition inflight limit %d", n)
	}
	lb.mu.Lock()
	lb.transitionLimit = n
	lb.mu.Unlock()
	return nil
}

// InTransition reports whether a reconfiguration is in flight.
func (lb *LoadBalancer) InTransition() bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.transition > 0
}

// Shed returns how many requests transition backpressure rejected.
func (lb *LoadBalancer) Shed() uint64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.shed
}

// FailedCounts returns per-backend transport-failure counts.
func (lb *LoadBalancer) FailedCounts() map[string]uint64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make(map[string]uint64, len(lb.backends))
	for _, b := range lb.backends {
		out[b.url] = b.failed
	}
	return out
}

// Served returns how many requests the handler has completed.
func (h *Handler) Served() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.served
}

// Allow consumes a token if one is available.
func (l *RateLimiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill()
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// Rate returns the sustained rate.
func (l *RateLimiter) Rate() float64 { return l.rate }

// Served returns the number of completed requests.
func (i *Instance) Served() uint64 { return i.handler.Served() }
