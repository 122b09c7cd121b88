// Package webapp implements the paper's target application as real,
// runnable code: a stateless web server whose request handler performs the
// same work as the paper's python CGI script — a loop of random number
// generation with an iteration count drawn uniformly from [1000, 2000],
// returning a static HTML page containing the final integer.
//
// Because the repository substitutes emulated machines for the paper's
// heterogeneous hardware, each Instance is bracketed by a token-bucket rate
// limiter calibrated to the hosting architecture's maximum performance:
// an instance on an emulated Raspberry sustains ~9 requests/s regardless of
// the build machine's CPU. The stateless property that makes the paper's
// migration trivial (start new instance → update load balancer → stop old
// instance) is exercised by the LoadBalancer and Farm types.
package webapp

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Workload configures the CGI-equivalent request work.
type Workload struct {
	// MinIters and MaxIters bound the random-number-generation loop length
	// (the paper uses 1000 and 2000).
	MinIters, MaxIters int
}

// DefaultWorkload is the paper's CGI script configuration.
func DefaultWorkload() Workload { return Workload{MinIters: 1000, MaxIters: 2000} }

// Validate checks the workload bounds.
func (w Workload) Validate() error {
	if w.MinIters <= 0 || w.MaxIters < w.MinIters {
		return fmt.Errorf("webapp: invalid workload bounds [%d, %d]", w.MinIters, w.MaxIters)
	}
	return nil
}

// Handler is the stateless application handler. It is safe for concurrent
// use: each request derives its randomness from a locked source, matching
// the CGI script's per-request seeding.
type Handler struct {
	workload Workload
	mu       sync.Mutex
	rng      *rand.Rand
	served   uint64
}

// NewHandler builds the application handler with a deterministic seed.
func NewHandler(w Workload, seed int64) (*Handler, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Handler{workload: w, rng: rand.New(rand.NewSource(seed))}, nil
}

// ServeHTTP implements http.Handler: the random loop plus the static HTML
// response of the paper's CGI script.
func (h *Handler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h.mu.Lock()
	iters := h.workload.MinIters + h.rng.Intn(h.workload.MaxIters-h.workload.MinIters+1)
	seed := h.rng.Int63()
	h.served++
	h.mu.Unlock()

	// The CPU-bound section runs without the lock so instances exploit
	// multiple cores like the paper's multi-process CGI setup.
	local := rand.New(rand.NewSource(seed))
	var last int
	for i := 0; i < iters; i++ {
		last = local.Intn(1 << 30)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><body><p>%d</p></body></html>\n", last)
}

// RateLimiter is a token-bucket limiter used to emulate an architecture's
// service rate. The zero value is invalid; use NewRateLimiter.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// NewRateLimiter builds a limiter sustaining rate requests/s with the given
// burst capacity (tokens available instantaneously).
func NewRateLimiter(rate, burst float64) (*RateLimiter, error) {
	if rate <= 0 || burst < 1 {
		return nil, fmt.Errorf("webapp: invalid limiter rate=%v burst=%v", rate, burst)
	}
	return &RateLimiter{rate: rate, burst: burst, tokens: burst, now: time.Now}, nil
}

// refill tops up tokens according to elapsed wall time. Callers hold mu.
func (l *RateLimiter) refill() {
	now := l.now()
	if l.last.IsZero() {
		l.last = now
		return
	}
	dt := now.Sub(l.last).Seconds()
	if dt <= 0 {
		return
	}
	l.tokens += dt * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
}

// Wait blocks until a token is available or the deadline passes; it
// returns false on deadline expiry.
func (l *RateLimiter) Wait(deadline time.Time) bool {
	for {
		l.mu.Lock()
		l.refill()
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			return true
		}
		deficit := 1 - l.tokens
		l.mu.Unlock()
		sleep := time.Duration(deficit / l.rate * float64(time.Second))
		if sleep < 200*time.Microsecond {
			sleep = 200 * time.Microsecond
		}
		if !deadline.IsZero() && time.Now().Add(sleep).After(deadline) {
			return false
		}
		time.Sleep(sleep)
	}
}

// LimitedHandler wraps an http.Handler with a rate limiter emulating the
// hosting architecture's throughput; requests beyond the sustained rate
// block briefly, and requests that would wait past the client's patience
// (the limiter deadline) receive 503, matching an overloaded lighttpd.
func LimitedHandler(h http.Handler, l *RateLimiter, patience time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Time{}
		if patience > 0 {
			deadline = time.Now().Add(patience)
		}
		if !l.Wait(deadline) {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}
