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
// It runs on the interval integrator with bucket boundaries as extra span
// limits, exactly as day boundaries already are, so no integrated span
// crosses a bucket. Each span's energy goes to its bucket whole, and the
// bucket's load and static-reference draw are folded run by run over the
// span's runs — recording costs O(spans + runs) arithmetic with no extra
// scheduler work. WithTickEngine selects the 1 Hz oracle loop,
// which reports every second as a one-second span;
// recorder_differential_test.go holds the two bucket-for-bucket to
// ≤1e-6 J with exactly equal counters.
func RunBMLRecorded(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, bucketSeconds int, opts ...Option) (*Recording, error) {
	if tr == nil || planner == nil {
		return nil, errors.New("sim: nil trace or planner")
	}
	if bucketSeconds <= 0 {
		return nil, fmt.Errorf("sim: invalid bucket width %d", bucketSeconds)
	}
	// Static reference sizing, as in RunUpperBoundGlobal.
	big := planner.Big()
	nStatic := big.NodesFor(tr.Max())
	if nStatic == 0 {
		nStatic = 1
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
	// totals: the tick oracle folds one sample per second while the
	// integrator folds one per span, and the recording differential holds
	// the two orderings to ≤1e-6 J per bucket even for day-wide buckets.
	powerComp := make([]float64, buckets)
	var blk runBlock
	res, _, err := runBML(tr, planner, cfg, false, buildOptions(opts), bucketSeconds, func(t, next int, e power.Joules) {
		// [t, next) lies inside exactly one bucket, so the whole span's
		// energy, demand-seconds, and reference draw belong to it.
		b := t / bucketSeconds
		rec.Power[b], powerComp[b] = power.NeumaierAdd(rec.Power[b], powerComp[b], float64(e))
		for i := t; i < next; {
			for r, d := range blk.fill(tr, i, next) {
				dt := float64(blk.end[r] - i)
				rec.Load[b] += d * dt
				rec.StaticPower[b] += packLoad(d, big.MaxPerf, float64(big.MaxPower), float64(big.IdlePower)).draw(nStatic, float64(big.MaxPower), float64(big.IdlePower)) * dt
				i = blk.end[r]
			}
		}
		seconds[b] += float64(next - t)
	})
	if err != nil {
		return nil, err
	}
	for b := range seconds {
		if seconds[b] > 0 {
			rec.Load[b] /= seconds[b]
			rec.Power[b] = (rec.Power[b] + powerComp[b]) / seconds[b]
			rec.StaticPower[b] /= seconds[b]
		}
	}
	rec.Result = res
	return rec, nil
}
