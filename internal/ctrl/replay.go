package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"repro/internal/bml"
	"repro/internal/loadgen"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webapp"
)

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
	// rates; it reads the same planner memo, so for every in-range rate it
	// returns the simulator's combination.
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
	schedule, err := loadgen.PoissonSchedule(cfg.Seed, cfg.Trace.Max()*cfg.RateScale, liveRate, wallDur)
	if err != nil {
		return nil, err
	}
	load, err := loadgen.Replay(ctx, front.URL, schedule, 0)
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
		if targetsEqual(s.Target, l.Target) && math.Abs(float64(s.Time)-l.SimT) <= tol {
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

func targetsEqual(a map[string]int, b map[string]int) bool {
	return sameCounts(a, b)
}
