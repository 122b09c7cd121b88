package ctrl

// The sim-versus-live differential harness: Replay runs one quantized
// trace segment through the simulator and through a live farm driven by
// the Controller at accelerated wall time, feeding the farm an open-loop
// Poisson arrival schedule of the same trace, and CompareDecisions holds
// the two decision sequences to each other.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bml"
	"repro/internal/loadgen"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Controller readings and inputs that only tests use.

// Inject queues a synthetic event for the run loop, as if a live signal
// had fired. It is subject to the same re-plan rate limiter.
func (c *Controller) Inject(ev Event) {
	c.inject <- ev
}

// Decisions returns a copy of the decision log.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.log))
	for i, d := range c.log {
		cp := d
		cp.Target = make(map[string]int, len(d.Target))
		for k, v := range d.Target {
			cp.Target[k] = v
		}
		out[i] = cp
	}
	return out
}

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ReplayConfig parameterizes a differential sim-versus-live replay: the
// same quantized trace segment is run through the simulator (RunBML's
// scheduler) and through a live farm driven by the Controller at
// accelerated wall time, and the two decision sequences are compared with
// CompareDecisions.
type ReplayConfig struct {
	// Trace is the (quantized) load segment to replay. Required.
	Trace *trace.Trace
	// Quantum is the trace's quantization width in seconds; it sets the
	// live decide interval (one decision per bucket) and the comparison's
	// time bucket. Required.
	Quantum int
	// Planner supplies candidate architectures and the combination lookup.
	// Required.
	Planner *bml.Planner
	// Sim configures the rig both sides share (sim.LiveRig); leave
	// Predictor nil to use the paper's look-ahead max.
	Sim sim.BMLConfig
	// TimeScale is the wall duration of one simulated second. Zero means
	// 2ms (a 1-hour segment replays in ~7 s).
	TimeScale time.Duration
	// RateScale converts trace request rates to live rates for both the
	// load generator and the farm's instance rate limits. Zero means 0.02.
	RateScale float64
	// Seed drives the Poisson arrival schedule and the farm workload.
	Seed int64
	// MinReplanGap / MaxReplansPerMinute configure the controller's event
	// re-plan limiter (zero = controller defaults).
	MinReplanGap        time.Duration
	MaxReplansPerMinute int
	// QoSBoost is the controller's qos emergency multiplier (zero =
	// controller default).
	QoSBoost float64
	// InjectQoSAtSim injects a synthetic QoS-degradation event at this
	// simulated second (must fall strictly inside a bucket to demonstrate
	// an early re-plan). Zero disables injection.
	InjectQoSAtSim float64
	// Logf receives progress lines when non-nil.
	Logf func(format string, args ...any)
}

// ReplayReport is the outcome of one differential replay.
type ReplayReport struct {
	// Sim is the simulator's decision log over the segment.
	Sim []sched.Decision
	// Live is the controller's decision log.
	Live []Decision
	// Stats snapshots the controller counters at the end of the run.
	Stats Stats
	// Load is the load generator's delivery accounting.
	Load loadgen.Result
}

// Replay runs the differential experiment: simulator first (instant), then
// the live farm under a Poisson arrival replay of the same trace at
// TimeScale-accelerated wall time.
func Replay(ctx context.Context, cfg ReplayConfig) (*ReplayReport, error) {
	if cfg.Trace == nil || cfg.Planner == nil {
		return nil, errors.New("ctrl: replay needs a trace and a planner")
	}
	if cfg.Quantum <= 0 {
		return nil, fmt.Errorf("ctrl: invalid quantum %d", cfg.Quantum)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 2 * time.Millisecond
	}
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("ctrl: invalid time scale %v", cfg.TimeScale)
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 0.02
	}
	if cfg.RateScale <= 0 {
		return nil, fmt.Errorf("ctrl: invalid rate scale %v", cfg.RateScale)
	}

	// Simulator side: decisions from the interval integrator.
	_, simDecs, err := sim.RunBMLDecisions(cfg.Trace, cfg.Planner, cfg.Sim)
	if err != nil {
		return nil, err
	}

	// Live side plans from the simulator's exact rig.
	table, pred, headroom, err := sim.LiveRig(cfg.Trace, cfg.Planner, cfg.Sim)
	if err != nil {
		return nil, err
	}
	// The QoS boost looks up rates beyond the trace maximum the rig's
	// lookup clamps at. Widen the live lookup's range for the boosted
	// rates; it places through the same planner, so for every in-range
	// rate it returns the simulator's counts.
	if boost := cfg.QoSBoost; boost > 1 {
		table = cfg.Planner.Lookup(cfg.Trace.Max() * headroom * boost)
	}
	archs := cfg.Planner.Candidates()
	farm, err := webapp.NewFarm(archs, webapp.InstanceConfig{
		RateScale: cfg.RateScale,
		Seed:      cfg.Seed,
		Patience:  200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer farm.Close(context.Background())
	front := httptest.NewServer(farm.LoadBalancer())
	defer front.Close()

	ctl, err := New(Config{
		Farm:                farm,
		Table:               table,
		Predictor:           pred,
		TimeScale:           cfg.TimeScale,
		DecideEvery:         time.Duration(cfg.Quantum) * cfg.TimeScale,
		RateScale:           cfg.RateScale,
		Headroom:            headroom,
		PredictSkew:         1,
		MinReplanGap:        cfg.MinReplanGap,
		MaxReplansPerMinute: cfg.MaxReplansPerMinute,
		QoSBoost:            cfg.QoSBoost,
		EmulateTransitions:  true,
		Archs:               archs,
		ObservedCount:       farm.LoadBalancer().Arrivals,
		Logf:                cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctrlDone := make(chan error, 1)
	go func() { ctrlDone <- ctl.Run(runCtx) }()

	if cfg.InjectQoSAtSim > 0 {
		wall := time.Duration(cfg.InjectQoSAtSim * float64(cfg.TimeScale))
		timer := time.AfterFunc(wall, func() {
			ctl.Inject(Event{Trigger: TriggerQoS, Reason: "injected degradation"})
		})
		defer timer.Stop()
	}

	// Live arrivals: an inhomogeneous Poisson replay of the trace, mapped
	// to wall time through TimeScale and RateScale.
	wallDur := time.Duration(cfg.Trace.Len()) * cfg.TimeScale
	liveRate := func(el time.Duration) float64 {
		s := int(el / cfg.TimeScale)
		if s >= cfg.Trace.Len() {
			s = cfg.Trace.Len() - 1
		}
		return cfg.Trace.At(s) * cfg.RateScale
	}
	schedule, err := PoissonSchedule(cfg.Seed, cfg.Trace.Max()*cfg.RateScale, liveRate, wallDur)
	if err != nil {
		return nil, err
	}
	load, err := replaySchedule(ctx, front.URL, schedule, 0)
	if err != nil {
		return nil, err
	}
	// Let the final bucket's tick land before stopping the controller.
	select {
	case <-time.After(time.Duration(cfg.Quantum) * cfg.TimeScale):
	case <-ctx.Done():
	}
	cancel()
	<-ctrlDone

	return &ReplayReport{
		Sim:   simDecs,
		Live:  ctl.Decisions(),
		Stats: ctl.Stats(),
		Load:  load,
	}, nil
}

// CompareDecisions checks the live controller's changed decisions against
// the simulator's decision log over the same trace, under the documented
// tolerances:
//
//   - only reconfigurations are compared (live evaluations that kept the
//     current combination are ignored, matching the simulator's log, and
//     event-triggered live decisions are excluded — they respond to live
//     signals the simulator does not model);
//   - target combinations must match exactly (same node counts per
//     architecture);
//   - decision times may differ by at most tolBuckets × quantum simulated
//     seconds: one bucket because the live loop decides once per bucket
//     while the simulator decides every second, plus one bucket because a
//     reconfiguration lock started up to a bucket late also ends late and
//     delays the next decision by up to another tick;
//   - a simulator decision may go unmatched when the simulator's next
//     decision falls within the same tolerance window (the coarser live
//     cadence never saw the superseded target);
//   - trailing simulator decisions within tolerance of the segment end
//     may go unmatched (the live run stops at the horizon).
//
// horizon is the segment length in simulated seconds. A nil error means
// the sequences agree.
func CompareDecisions(simDecs []sched.Decision, live []Decision, quantum, tolBuckets, horizon int) error {
	if quantum <= 0 || tolBuckets < 0 {
		return fmt.Errorf("ctrl: invalid comparison parameters quantum=%d tol=%d", quantum, tolBuckets)
	}
	tol := float64(tolBuckets * quantum)
	var lv []Decision
	for _, d := range live {
		if d.Changed && d.Trigger == TriggerInterval {
			lv = append(lv, d)
		}
	}
	i, j := 0, 0
	for i < len(simDecs) && j < len(lv) {
		s, l := simDecs[i], lv[j]
		if sameCounts(s.Target, l.Target) && math.Abs(float64(s.Time)-l.SimT) <= tol {
			i++
			j++
			continue
		}
		// Superseded: the simulator replaced this target within the same
		// tolerance window, so the live loop's coarser cadence jumped
		// straight to the replacement.
		if i+1 < len(simDecs) && float64(simDecs[i+1].Time) <= l.SimT+tol {
			i++
			continue
		}
		return fmt.Errorf("ctrl: decision mismatch: sim t=%d target=%v vs live simT=%.1f target=%v",
			s.Time, s.Target, l.SimT, l.Target)
	}
	for ; i < len(simDecs); i++ {
		if float64(simDecs[i].Time) < float64(horizon)-tol-float64(quantum) {
			return fmt.Errorf("ctrl: simulator decision unmatched by live run: t=%d target=%v",
				simDecs[i].Time, simDecs[i].Target)
		}
	}
	if j < len(lv) {
		return fmt.Errorf("ctrl: live decision unmatched by simulator: simT=%.1f target=%v",
			lv[j].SimT, lv[j].Target)
	}
	return nil
}

// Schedule is a precomputed open-loop arrival sequence: request send
// offsets relative to the start of a replay, and the horizon it was drawn
// over. Unlike loadgen's closed-loop clients (which wait for each response
// before sending the next request), a schedule reproduces an offered-load trace: requests are fired at their
// arrival times regardless of how fast the farm answers, which is what the
// sim-vs-live differential harness needs to replay a trace segment
// faithfully.
type Schedule struct {
	times   []time.Duration
	horizon time.Duration
}

// PoissonSchedule draws a deterministic inhomogeneous Poisson arrival
// sequence over [0, duration) with time-varying intensity rate(elapsed)
// (requests per second), using Lewis-Shedler thinning against the constant
// envelope maxRate.
//
// Determinism guarantee: for the same seed, maxRate, duration, and rate
// function, PoissonSchedule returns the identical arrival sequence on
// every run and platform — math/rand's generator is stable for a fixed
// seed, and the thinning loop consumes variates in a fixed order. Different
// seeds produce diverging sequences. This is what makes live trace replays
// reproducible end to end.
//
// rate values above maxRate are clamped to maxRate (the envelope cannot be
// exceeded by construction); negative values are treated as zero.
func PoissonSchedule(seed int64, maxRate float64, rate func(elapsed time.Duration) float64, duration time.Duration) (Schedule, error) {
	if rate == nil {
		return Schedule{}, errors.New("ctrl: nil rate function")
	}
	if maxRate <= 0 {
		return Schedule{}, fmt.Errorf("ctrl: invalid max rate %v", maxRate)
	}
	if duration <= 0 {
		return Schedule{}, fmt.Errorf("ctrl: invalid duration %v", duration)
	}
	rng := rand.New(rand.NewSource(seed))
	var times []time.Duration
	t := time.Duration(0)
	for {
		// Exponential gap of the envelope process.
		gap := rng.ExpFloat64() / maxRate
		t += time.Duration(gap * float64(time.Second))
		if t >= duration {
			break
		}
		r := rate(t)
		if r < 0 {
			r = 0
		}
		if r > maxRate {
			r = maxRate
		}
		// Thinning: keep the candidate with probability r/maxRate. The
		// uniform variate is drawn unconditionally so the consumed rng
		// sequence — and therefore every later arrival — is independent
		// of float comparisons on the rate path.
		u := rng.Float64()
		if u < r/maxRate {
			times = append(times, t)
		}
	}
	return Schedule{times: times, horizon: duration}, nil
}

// replaySchedule fires the schedule open-loop against url: each request is sent at
// its arrival offset (relative to the moment Replay starts) on its own
// goroutine, without waiting for earlier responses. In-flight requests are
// bounded by maxInflight (0 = 512); arrivals beyond the bound are counted
// as failed rather than delayed, keeping the offered-load timing honest.
// It returns once every request has completed or ctx is done.
func replaySchedule(ctx context.Context, url string, s Schedule, maxInflight int) (loadgen.Result, error) {
	if url == "" {
		return loadgen.Result{}, errors.New("ctrl: empty url")
	}
	if maxInflight == 0 {
		maxInflight = 512
	}
	if maxInflight < 0 {
		return loadgen.Result{}, fmt.Errorf("ctrl: invalid inflight bound %d", maxInflight)
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: maxInflight},
		Timeout:   10 * time.Second,
	}
	defer client.CloseIdleConnections()

	var completed, failed uint64
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
dispatch:
	for _, at := range s.times {
		wait := at - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		select {
		case sem <- struct{}{}:
		default:
			atomic.AddUint64(&failed, 1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				atomic.AddUint64(&failed, 1)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				atomic.AddUint64(&failed, 1)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				atomic.AddUint64(&completed, 1)
			} else {
				atomic.AddUint64(&failed, 1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := loadgen.Result{
		Duration:  elapsed,
		Completed: atomic.LoadUint64(&completed),
		Failed:    atomic.LoadUint64(&failed),
	}
	if elapsed > 0 {
		res.Rate = float64(res.Completed) / elapsed.Seconds()
	}
	return res, nil
}
