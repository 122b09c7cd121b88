// Command bmlserve runs a live miniature BML web farm on localhost: real
// HTTP instances of the stateless application (rate-limited to emulate the
// paper's heterogeneous machines), a weighted load balancer front end, and
// the event-driven controller from internal/ctrl reconfiguring the farm to
// the ideal BML combination.
//
// The controller re-plans periodically from the observed arrival rate
// (reactive mode — a real deployment cannot look ahead into a trace file)
// and re-plans early when live signals fire: the observed rate diverging
// from the last plan beyond -error-threshold, the latency QoS window
// degrading (-qos-latency/-qos-window), or an arrival burst
// (-burst-factor). Event re-plans are rate-limited by -min-gap and
// -max-replans.
//
// Service rates are scaled down (default 2% of hardware scale) so the
// whole data center fits on a laptop: an emulated Paravance serves
// ~27 req/s.
//
// Usage:
//
//	bmlserve -addr :8080                 # serve until interrupted
//	bmlserve -selftest -seed 1           # drive a ramp load, then exit
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/bml"
	"repro/internal/ctrl"
	"repro/internal/loadgen"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/webapp"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so slow or stalled connections cannot pin the balancer's
// connection slots.
const readHeaderTimeout = 10 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("bmlserve: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "load balancer listen address (port 0 picks a free port)")
		rateScale  = flag.Float64("rate-scale", 0.02, "emulated service-rate scale")
		interval   = flag.Duration("interval", 2*time.Second, "controller decision interval")
		headroom   = flag.Float64("headroom", 1.2, "capacity headroom over the observed rate")
		seed       = flag.Int64("seed", 0, "deterministic seed for workload randomness (0 = time-based)")
		errThresh  = flag.Float64("error-threshold", 0.5, "relative observed-vs-planned rate error forcing an early re-plan (0 disables)")
		burstFac   = flag.Float64("burst-factor", 3, "short-window arrival rate over sustained rate forcing an early re-plan (0 disables)")
		qosLatency = flag.Duration("qos-latency", 500*time.Millisecond, "latency QoS threshold; degradation forces an early re-plan (0 disables)")
		qosWindow  = flag.Duration("qos-window", 5*time.Second, "QoS observation window span")
		minGap     = flag.Duration("min-gap", 500*time.Millisecond, "minimum gap between event-triggered re-plans")
		maxReplans = flag.Int("max-replans", 12, "event-triggered re-plan budget per minute")
		selftest   = flag.Bool("selftest", false, "drive a ramp load against the farm and exit (exit 1 on failure)")
		stepDur    = flag.Duration("selftest-step", 6*time.Second, "duration of each selftest ramp step")
	)
	flag.Parse()

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return err
	}
	farm, err := webapp.NewFarm(planner.Candidates(), webapp.InstanceConfig{
		RateScale: *rateScale,
		Seed:      *seed,
		Patience:  2 * time.Second,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer func() {
		closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = farm.Close(closeCtx)
	}()

	// Start with one Little instance so the farm serves immediately.
	little := planner.Little()
	if err := farm.Reconfigure(ctx, map[string]int{little.Name: 1}); err != nil {
		return err
	}

	// Wire the balancer's per-request observations into the latency QoS
	// window the controller polls.
	var qosDegraded func(time.Time) bool
	if *qosLatency > 0 {
		win, err := qos.NewWindow(qos.WindowConfig{
			Threshold: *qosLatency,
			Span:      *qosWindow,
		})
		if err != nil {
			return err
		}
		farm.LoadBalancer().SetObserver(func(o webapp.Observation) {
			win.Observe(o.Start.Add(o.Latency), o.Latency, o.TransportError || o.Status >= 500)
		})
		qosDegraded = win.Degraded
	}

	// Explicit listen (rather than ListenAndServe) so ":0" resolves to a
	// concrete port the selftest can target.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: farm.LoadBalancer(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		log.Printf("load balancer listening on http://%s/", ln.Addr())
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("serve: %v", err)
			stop()
		}
	}()
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	// Reactive controller: nil predictor plans from the observed arrival
	// rate (converted back to hardware scale by RateScale). MinRate keeps
	// at least a minimal combination alive through idle periods. The
	// lookup's range covers the full emulated data center (the paper's
	// 4-Big over-provisioned baseline) with room for the QoS boost.
	lb := farm.LoadBalancer()
	controller, err := ctrl.New(ctrl.Config{
		Farm:                farm,
		Table:               planner.Lookup(planner.Big().MaxPerf * 4 * 1.5),
		TimeScale:           time.Second,
		DecideEvery:         *interval,
		RateScale:           *rateScale,
		Headroom:            *headroom,
		MinRate:             1,
		RateErrorThreshold:  *errThresh,
		RateErrorFloor:      5, // hw-scale req/s; mutes the trigger near idle
		BurstFactor:         *burstFac,
		BurstWindow:         time.Second,
		QoSDegraded:         qosDegraded,
		ArrivalRate:         lb.ArrivalRate,
		ObservedCount:       lb.Arrivals,
		MinReplanGap:        *minGap,
		MaxReplansPerMinute: *maxReplans,
		Logf:                log.Printf,
	})
	if err != nil {
		return err
	}

	selftestFailed := make(chan bool, 1)
	if *selftest {
		go func() {
			selftestFailed <- !runSelfTest(ctx, "http://"+ln.Addr().String()+"/", *stepDur)
			stop()
		}()
	}

	err = controller.Run(ctx)
	if err == context.Canceled || ctx.Err() != nil {
		err = nil
	}
	log.Printf("shutting down")
	if *selftest {
		select {
		case failed := <-selftestFailed:
			if failed {
				return fmt.Errorf("selftest failed")
			}
		default:
			return fmt.Errorf("selftest interrupted")
		}
	}
	return err
}

// runSelfTest ramps concurrency up and back down against the farm and
// reports success: every step must complete at least one request.
func runSelfTest(ctx context.Context, url string, step time.Duration) bool {
	time.Sleep(2 * time.Second) // let the first instance come up
	ok := true
	for _, conc := range []int{1, 4, 8, 4, 1} {
		select {
		case <-ctx.Done():
			return false
		default:
		}
		res, err := loadgen.Run(ctx, url, conc, step)
		if err != nil {
			log.Printf("selftest: %v", err)
			return false
		}
		fmt.Printf("selftest: concurrency %d → %.1f req/s (%d ok, %d failed)\n",
			conc, res.Rate, res.Completed, res.Failed)
		if res.Completed == 0 {
			ok = false
		}
	}
	return ok
}
