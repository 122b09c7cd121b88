package sim

import (
	"errors"
	"fmt"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/trace"
)

// Recording is the telemetry of a BML run, downsampled into fixed-width
// buckets: the offered load and the fleet's power draw, plus the always-on
// reference fleet's draw serving the same load. It is the data behind the
// "power tracks load" proportionality plots.
type Recording struct {
	// BucketSeconds is the downsampling width.
	BucketSeconds int
	// Load is the mean offered load per bucket (requests/s).
	Load []float64
	// Power is the mean BML fleet draw per bucket (Watts), including
	// transition power.
	Power []float64
	// StaticPower is the mean draw of the UpperBound Global fleet serving
	// the same load, for contrast.
	StaticPower []float64
	// Result carries the run's aggregate outcome.
	Result *Result
}

// RunBMLRecorded is RunBML with per-bucket telemetry.
//
// By default it runs on the event engine: bucket boundaries are emitted as
// timeline events so no integrated interval spans a bucket, and each
// bucket's mean load, fleet draw, and static-reference draw are folded in
// analytically per interval — recording costs O(events + buckets), not
// O(trace seconds). WithTickEngine selects the legacy 1 Hz sampling loop
// (one scheduler step and one joule-sample per simulated second), retained
// solely as the differential-testing oracle for the event-driven recorder
// (recorder_differential_test.go holds the two bucket-for-bucket to
// ≤1e-6 J with exactly equal counters).
func RunBMLRecorded(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, bucketSeconds int, opts ...Option) (*Recording, error) {
	if tr == nil || planner == nil {
		return nil, errors.New("sim: nil trace or planner")
	}
	if bucketSeconds <= 0 {
		return nil, fmt.Errorf("sim: invalid bucket width %d", bucketSeconds)
	}
	o := buildOptions(opts)
	// Static reference sizing, as in RunUpperBoundGlobal.
	big := planner.Big()
	nStatic := big.NodesFor(tr.Max())
	if nStatic == 0 {
		nStatic = 1
	}

	sc, cl, pred, err := buildBMLRig(tr, planner, cfg)
	if err != nil {
		return nil, err
	}
	buckets := (tr.Len() + bucketSeconds - 1) / bucketSeconds
	rec := &Recording{
		BucketSeconds: bucketSeconds,
		Load:          make([]float64, buckets),
		Power:         make([]float64, buckets),
		StaticPower:   make([]float64, buckets),
	}
	seconds := make([]float64, buckets)
	// Bucket energies use compensated accumulation, like the Result
	// totals: the tick oracle folds one sample per second while the event
	// path folds one per interval, and the recording differential holds
	// the two orderings to ≤1e-6 J per bucket even for day-wide buckets.
	powerComp := make([]float64, buckets)
	res := newResult("Big-Medium-Little", tr.Days())
	// Recording needs the per-interval observer stream (constant demand per
	// interval, bucket-boundary events), which only the per-sample event
	// path provides: any non-tick option records event-wise.
	if o.engine == engineTick {
		// Legacy 1 Hz oracle: one sample per simulated second.
		for t := 0; t < tr.Len(); t++ {
			demand := tr.At(t)
			rep, err := sc.Step(t, demand, 1)
			if err != nil {
				return nil, fmt.Errorf("sim: step %d: %w", t, err)
			}
			res.addEnergy(t, rep.Energy)
			if err := res.QoS.Observe(demand, rep.Served, 1); err != nil {
				return nil, err
			}
			b := t / bucketSeconds
			rec.Load[b] += demand
			// One second at constant draw: Joules numerically equal Watts.
			rec.Power[b], powerComp[b] = power.NeumaierAdd(rec.Power[b], powerComp[b], float64(rep.Energy))
			rec.StaticPower[b] += fleetPowerN(nStatic, demand, big.MaxPerf, float64(big.MaxPower), float64(big.IdlePower))
			seconds[b]++
		}
	} else {
		tl := newBucketTimeline(tr, pred, bucketSeconds)
		err := runBMLEventObserved(tr, sc, res, tl, func(t, next int, demand float64, e power.Joules) {
			// The bucket boundary is a timeline event, so [t, next) lies
			// inside exactly one bucket and the whole interval's energy,
			// demand-seconds, and reference draw belong to it.
			b := t / bucketSeconds
			dt := float64(next - t)
			rec.Load[b] += demand * dt
			rec.Power[b], powerComp[b] = power.NeumaierAdd(rec.Power[b], powerComp[b], float64(e))
			rec.StaticPower[b] += fleetPowerN(nStatic, demand, big.MaxPerf, float64(big.MaxPower), float64(big.IdlePower)) * dt
			seconds[b] += dt
		})
		if err != nil {
			return nil, err
		}
	}
	for b := range seconds {
		if seconds[b] > 0 {
			rec.Load[b] /= seconds[b]
			rec.Power[b] = (rec.Power[b] + powerComp[b]) / seconds[b]
			rec.StaticPower[b] /= seconds[b]
		}
	}
	res.Decisions = sc.Decisions()
	res.SwitchOns = sc.SwitchOns()
	res.SwitchOffs = sc.SwitchOffs()
	res.Skipped = sc.Skipped()
	res.MigrationEnergy = sc.MigrationEnergy()
	res.Breakdown = cl.Breakdown()
	res.Breakdown.Transition += res.MigrationEnergy
	res.finalize()
	rec.Result = res
	return rec, nil
}
