package webapp

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// LoadBalancer is the component that makes the stateless application
// migratable: it forwards each incoming request to one of the registered
// backend instances, weighted by the backend's sustainable rate, so "up to
// several web server instances" (§V-A) share the load the way the
// simulator's fill-biggest-first dispatch assumes. Updating the backend set
// is the second step of the paper's migration (start new instance → update
// load balancer → stop old instance).
//
// Beyond forwarding, the balancer is the control plane's sensor and its
// admission valve:
//
//   - it meters arrivals (Arrivals, ArrivalRate) so the controller can
//     estimate offered demand and detect bursts;
//   - it reports every front-end request to an optional observer
//     (SetObserver) so a qos.Window can watch live latency;
//   - while the farm is mid-transition (EnterTransition/ExitTransition,
//     driven by Farm.Reconfigure) it applies admission backpressure:
//     requests beyond the in-flight cap receive an immediate 503 with
//     Retry-After instead of piling onto instances that are being drained.
type LoadBalancer struct {
	mu       sync.Mutex
	backends []*backend
	client   *http.Client

	now func() time.Time // injectable clock for meter tests

	arrivals uint64 // cumulative front-end arrivals (survives Remove)
	shed     uint64 // requests rejected by transition backpressure
	buckets  [arrivalBuckets]arrivalBucket

	transition      int // nesting depth of in-flight reconfigurations
	inflight        int
	transitionLimit int

	observer func(Observation)
}

// Observation describes one front-end request as the balancer saw it:
// when it arrived, how long it took end to end, the status returned to the
// client, and whether the failure was at the transport (a dropped backend
// connection rather than an HTTP error). Shed and no-backend requests are
// observed too — they are exactly the QoS signal the controller wants.
type Observation struct {
	Start          time.Time
	Latency        time.Duration
	Status         int
	TransportError bool
}

// Arrival metering: a ring of fixed-width wall-time buckets. Each bucket
// remembers which absolute time slot it last counted, so stale slots are
// implicitly zero without a sweeper goroutine.
const (
	arrivalBucketWidth = 100 * time.Millisecond
	arrivalBuckets     = 100 // 10 s of history
)

type arrivalBucket struct {
	slot  int64 // absolute bucket number the count belongs to
	count uint64
}

type backend struct {
	url    string
	weight float64
	credit float64
	served uint64
	failed uint64
}

// DefaultTransitionInflightLimit caps concurrently proxied requests while
// the farm is reconfiguring; requests beyond it are shed with 503.
const DefaultTransitionInflightLimit = 64

// NewLoadBalancer builds an empty balancer.
func NewLoadBalancer() *LoadBalancer {
	return &LoadBalancer{
		client:          &http.Client{},
		now:             time.Now,
		transitionLimit: DefaultTransitionInflightLimit,
	}
}

// ErrNoBackends is returned when a request arrives with no registered
// instance.
var ErrNoBackends = errors.New("webapp: load balancer has no backends")

// Add registers a backend URL with the given weight (typically the hosting
// architecture's MaxPerf).
func (lb *LoadBalancer) Add(url string, weight float64) error {
	if url == "" || weight <= 0 {
		return fmt.Errorf("webapp: invalid backend %q weight %v", url, weight)
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, b := range lb.backends {
		if b.url == url {
			return fmt.Errorf("webapp: backend %q already registered", url)
		}
	}
	lb.backends = append(lb.backends, &backend{url: url, weight: weight})
	return nil
}

// Remove deregisters a backend URL.
func (lb *LoadBalancer) Remove(url string) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for i, b := range lb.backends {
		if b.url == url {
			lb.backends = append(lb.backends[:i], lb.backends[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("webapp: backend %q not registered", url)
}

// Backends returns the registered backend URLs.
func (lb *LoadBalancer) Backends() []string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make([]string, len(lb.backends))
	for i, b := range lb.backends {
		out[i] = b.url
	}
	return out
}

// SetObserver installs a per-request observation callback (nil disables).
// The callback runs on the request goroutine after the response completes;
// it must be safe for concurrent use and should return quickly.
func (lb *LoadBalancer) SetObserver(fn func(Observation)) {
	lb.mu.Lock()
	lb.observer = fn
	lb.mu.Unlock()
}

// EnterTransition marks the start of a farm reconfiguration: admission
// backpressure engages until the matching ExitTransition. Calls nest.
func (lb *LoadBalancer) EnterTransition() {
	lb.mu.Lock()
	lb.transition++
	lb.mu.Unlock()
}

// ExitTransition marks the end of a farm reconfiguration.
func (lb *LoadBalancer) ExitTransition() {
	lb.mu.Lock()
	if lb.transition > 0 {
		lb.transition--
	}
	lb.mu.Unlock()
}

// Arrivals returns the cumulative number of front-end requests, including
// shed and failed ones. Unlike ServedCounts, the counter survives backend
// removal, so rate estimates across reconfigurations stay monotonic.
func (lb *LoadBalancer) Arrivals() uint64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.arrivals
}

// noteArrival counts the request into the cumulative counter and the
// metering ring. Callers hold mu.
func (lb *LoadBalancer) noteArrival(now time.Time) {
	lb.arrivals++
	slot := now.UnixNano() / int64(arrivalBucketWidth)
	b := &lb.buckets[ringIndex(slot)]
	if b.slot != slot {
		b.slot = slot
		b.count = 0
	}
	b.count++
}

// ArrivalRate estimates the recent arrival rate (requests per second) over
// the given window, from the completed metering buckets preceding now (the
// current partial bucket is excluded so a freshly started bucket does not
// bias the rate down). The window is clamped to the ring's history
// (~10 s); zero means one second.
func (lb *LoadBalancer) ArrivalRate(window time.Duration) float64 {
	if window <= 0 {
		window = time.Second
	}
	if max := arrivalBucketWidth * (arrivalBuckets - 1); window > max {
		window = max
	}
	k := int(window / arrivalBucketWidth)
	if k < 1 {
		k = 1
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	slot := lb.now().UnixNano() / int64(arrivalBucketWidth)
	var sum uint64
	for i := 1; i <= k; i++ {
		b := &lb.buckets[ringIndex(slot-int64(i))]
		if b.slot == slot-int64(i) {
			sum += b.count
		}
	}
	return float64(sum) / (float64(k) * arrivalBucketWidth.Seconds())
}

// ringIndex maps an absolute bucket slot to its ring position, handling
// negative slots (clocks before the epoch) safely.
func ringIndex(slot int64) int64 {
	idx := slot % arrivalBuckets
	if idx < 0 {
		idx += arrivalBuckets
	}
	return idx
}

// pick selects the next backend by smooth weighted round-robin: each pick
// adds every backend's weight to its credit and selects the highest-credit
// backend, subtracting the total weight — the algorithm nginx uses, which
// interleaves heterogeneous weights smoothly.
func (lb *LoadBalancer) pick() (*backend, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if len(lb.backends) == 0 {
		return nil, ErrNoBackends
	}
	var total float64
	var best *backend
	for _, b := range lb.backends {
		b.credit += b.weight
		total += b.weight
		if best == nil || b.credit > best.credit {
			best = b
		}
	}
	best.credit -= total
	best.served++
	return best, nil
}

// admit counts the request in-flight unless transition backpressure
// rejects it; the returned release must be called when the request ends.
func (lb *LoadBalancer) admit(now time.Time) (release func(), ok bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.noteArrival(now)
	if lb.transition > 0 && lb.inflight >= lb.transitionLimit {
		lb.shed++
		return nil, false
	}
	lb.inflight++
	return func() {
		lb.mu.Lock()
		lb.inflight--
		lb.mu.Unlock()
	}, true
}

// observe reports the finished request to the installed observer, if any.
func (lb *LoadBalancer) observe(o Observation) {
	lb.mu.Lock()
	fn := lb.observer
	lb.mu.Unlock()
	if fn != nil {
		fn(o)
	}
}

// ServeHTTP implements http.Handler by proxying the request to a backend.
// Only GET is needed by the benchmark workload; other methods are passed
// through identically. While the farm is mid-transition, requests beyond
// the in-flight cap are shed with 503 and Retry-After — the documented
// transition window during which clients must retry.
func (lb *LoadBalancer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := lb.now()
	release, ok := lb.admit(start)
	if !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "farm reconfiguring, retry shortly", http.StatusServiceUnavailable)
		lb.observe(Observation{Start: start, Latency: lb.now().Sub(start), Status: http.StatusServiceUnavailable})
		return
	}
	defer release()
	status, transportErr := lb.forward(w, r)
	lb.observe(Observation{
		Start:          start,
		Latency:        lb.now().Sub(start),
		Status:         status,
		TransportError: transportErr,
	})
}

// transportRetries is how many times a request is re-picked after a
// transport-level failure before the client sees a 502. The window
// between an instance leaving the balancer and its listener closing means
// a request can occasionally dial a backend that is already gone;
// retrying on another backend hides the race from clients. Only
// body-less requests are retried (the benchmark workload is all GETs,
// which are idempotent); a consumed request body cannot be resent.
const transportRetries = 2

// forward proxies the request and returns the status sent to the client
// and whether the failure was transport-level.
func (lb *LoadBalancer) forward(w http.ResponseWriter, r *http.Request) (status int, transportErr bool) {
	retriable := r.Body == nil || r.Body == http.NoBody ||
		r.Method == http.MethodGet || r.Method == http.MethodHead
	var lastErr error
	tried := make(map[string]bool, 1)
	for attempt := 0; attempt <= transportRetries; attempt++ {
		b, err := lb.pick()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return http.StatusServiceUnavailable, false
		}
		if tried[b.url] {
			break // every retry target already failed this request
		}
		tried[b.url] = true
		req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return http.StatusInternalServerError, false
		}
		resp, err := lb.client.Do(req)
		if err != nil {
			lb.mu.Lock()
			b.failed++
			lb.mu.Unlock()
			lastErr = err
			if retriable && r.Context().Err() == nil {
				continue
			}
			break
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			return resp.StatusCode, false // client went away mid-copy; nothing to do
		}
		return resp.StatusCode, false
	}
	http.Error(w, lastErr.Error(), http.StatusBadGateway)
	return http.StatusBadGateway, true
}

// ServedCounts returns per-backend forwarded-request counts, for dispatch
// distribution assertions.
func (lb *LoadBalancer) ServedCounts() map[string]uint64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make(map[string]uint64, len(lb.backends))
	for _, b := range lb.backends {
		out[b.url] = b.served
	}
	return out
}
