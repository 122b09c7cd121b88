package webapp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/profile"
)

// Instance is one running web-server process on one (emulated) machine: a
// real net/http server on a loopback port whose throughput is capped at the
// hosting architecture's maximum performance scaled by rateScale.
type Instance struct {
	arch     profile.Arch
	handler  *Handler
	limiter  *RateLimiter
	server   *http.Server
	listener net.Listener
	url      string

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// InstanceConfig parameterizes instance start-up.
type InstanceConfig struct {
	// Workload is the request work; zero value means DefaultWorkload.
	Workload Workload
	// RateScale multiplies the architecture's MaxPerf to obtain the
	// instance's sustained request rate. 1.0 emulates the hardware
	// faithfully; tests use smaller rates with shorter runs. Zero means 1.
	RateScale float64
	// Patience bounds how long an over-rate request queues before a 503.
	// Zero means one second.
	Patience time.Duration
	// Seed feeds the handler's deterministic randomness.
	Seed int64
}

// StartInstance launches a web-server instance for the given architecture
// on an ephemeral loopback port.
func StartInstance(arch profile.Arch, cfg InstanceConfig) (*Instance, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workload == (Workload{}) {
		cfg.Workload = DefaultWorkload()
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.RateScale < 0 {
		return nil, fmt.Errorf("webapp: invalid rate scale %v", cfg.RateScale)
	}
	if cfg.Patience == 0 {
		cfg.Patience = time.Second
	}
	handler, err := NewHandler(cfg.Workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rate := arch.MaxPerf * cfg.RateScale
	burst := rate / 10
	if burst < 1 {
		burst = 1
	}
	limiter, err := NewRateLimiter(rate, burst)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("webapp: listen: %w", err)
	}
	inst := &Instance{
		arch:     arch,
		handler:  handler,
		limiter:  limiter,
		listener: ln,
		url:      "http://" + ln.Addr().String() + "/",
		done:     make(chan struct{}),
	}
	inst.server = &http.Server{Handler: LimitedHandler(handler, limiter, cfg.Patience)}
	go func() {
		defer close(inst.done)
		// Serve returns ErrServerClosed on graceful shutdown.
		if err := inst.server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener died unexpectedly; nothing to surface here —
			// clients observe connection errors.
			_ = err
		}
	}()
	return inst, nil
}

// URL returns the instance's base URL.
func (i *Instance) URL() string { return i.url }

// Arch returns the hosting architecture.
func (i *Instance) Arch() profile.Arch { return i.arch }

// Stop shuts the instance down gracefully (draining in-flight requests),
// which together with LoadBalancer.Remove realizes the paper's stateless
// migration. If the context expires before the drain completes, the
// instance is force-closed: the machine is being switched off either way,
// and the balancer's transport-retry path hides the reset from clients.
// Stop is idempotent.
func (i *Instance) Stop(ctx context.Context) error {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return nil
	}
	i.closed = true
	i.mu.Unlock()
	if err := i.server.Shutdown(ctx); err != nil {
		_ = i.server.Close()
	}
	<-i.done
	return nil
}
