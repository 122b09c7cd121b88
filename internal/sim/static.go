package sim

import (
	"math"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/trace"
)

// This file holds the fold kernels of the static scenarios (UpperBound
// Global, UpperBound PerDay, LowerBound). Their draw is a pure function of
// the instantaneous load and a per-day constant sizing, so a run is folded
// one day window at a time: the day's sizing is computed once, each
// maximal run of equal samples is one closed-form interval, and the
// accumulators live in locals until the day ends.
//
// The runs are exactly the intervals of the per-sample event loop these
// kernels replaced (trace changes and day edges), and every run performs the float
// operations of that loop in the same order — e = P·dt, the plain
// Breakdown adds, the Neumaier adds into the total and the day bucket, and
// the QoS adds of one Observe — so the kernels are bit-identical to it, not merely within
// a tolerance. static_reference_test.go keeps that loop as the reference
// and compares every Result field with ==. The builtin min has math.Min's
// semantics (NaN, ±0) but inlines.

// daySums carries a Result's compensated energy sums through one day's
// fold: the run total and the day bucket, each with its Neumaier term. The
// kernels update its fields in place, as Result.addEnergy does, rather
// than through a method: two NeumaierAdds exceed the inlining budget.
type daySums struct {
	total, totalComp float64
	day, dayComp     float64
}

// openDay loads the sums a fold of day starts from. A trailing partial
// day has no bucket, as Result.addEnergy credits none past the last
// complete day: its day sum is folded and then dropped by closeDay.
func (r *Result) openDay(day int) daySums {
	s := daySums{total: float64(r.TotalEnergy), totalComp: r.totalComp}
	if day < len(r.DailyEnergy) {
		s.day, s.dayComp = float64(r.DailyEnergy[day]), r.dailyComp[day]
	}
	return s
}

// closeDay stores the sums of a finished day fold back into r.
func (r *Result) closeDay(day int, s daySums) {
	r.TotalEnergy, r.totalComp = power.Joules(s.total), s.totalComp
	if day < len(r.DailyEnergy) {
		r.DailyEnergy[day], r.dailyComp[day] = power.Joules(s.day), s.dayComp
	}
}

// dayWindow returns the samples of day d (fewer on a trailing partial day).
func dayWindow(tr *trace.Trace, d int) []float64 {
	return tr.Window(d*trace.SecondsPerDay, (d+1)*trace.SecondsPerDay)
}

// runEnd returns the end of the maximal run of samples equal to w[i].
func runEnd(w []float64, i int) int {
	v := w[i]
	for j, x := range w[i+1:] {
		if x != v {
			return i + 1 + j
		}
	}
	return len(w)
}

// runBatch collects runs for qos.Tracker.ObserveRuns, so a day costs one
// call per batch rather than one Observe call per run, and the QoS adds
// run in a loop of their own instead of lengthening the energy loop. 256
// runs (4 KiB) cover a quantized day in one call and stay on the kernel's
// stack. A batch never spans a day, whose capacity it shares.
type runBatch struct {
	n          int
	demand, dt [256]float64
}

// add appends a run and reports whether the batch is now full.
func (b *runBatch) add(demand, dt float64) bool {
	b.demand[b.n], b.dt[b.n] = demand, dt
	b.n++
	return b.n == len(b.dt)
}

// flush observes the collected runs, served up to capacity, and empties b.
func (b *runBatch) flush(q *qos.Tracker, capacity float64) error {
	n := b.n
	b.n = 0
	return q.ObserveRuns(b.demand[:n], b.dt[:n], capacity)
}

// foldHomogeneous integrates an always-on homogeneous fleet whose size is
// a per-day constant. Load beyond the day's capacity (possible only on the
// trailing partial-day fallback of UpperBound PerDay) is QoS loss.
func foldHomogeneous(tr *trace.Trace, arch profile.Arch, sizeForDay func(day int) int, res *Result) error {
	maxPerf, maxPower, idlePower := arch.MaxPerf, float64(arch.MaxPower), float64(arch.IdlePower)
	bIdle, bDynamic := res.Breakdown.Idle, res.Breakdown.Dynamic
	for day := 0; day*trace.SecondsPerDay < tr.Len(); day++ {
		w := dayWindow(tr, day)
		nodes := sizeForDay(day)
		capacity := float64(nodes) * maxPerf
		idle := float64(nodes) * idlePower
		s := res.openDay(day)
		var batch runBatch
		for i := 0; i < len(w); {
			j := runEnd(w, i)
			dt := float64(j - i)
			demand := w[i]
			p := fleetPowerN(nodes, min(demand, capacity), maxPerf, maxPower, idlePower)
			if !power.Watts(p).IsValid() {
				return power.ErrNegativePower
			}
			bIdle += power.Joules(idle * dt)
			bDynamic += power.Joules((p - idle) * dt)
			e := float64(p * dt)
			s.total, s.totalComp = power.NeumaierAdd(s.total, s.totalComp, e)
			s.day, s.dayComp = power.NeumaierAdd(s.day, s.dayComp, e)
			if batch.add(demand, dt) {
				if err := batch.flush(&res.QoS, capacity); err != nil {
					return err
				}
			}
			i = j
		}
		res.closeDay(day, s)
		res.Breakdown.Idle, res.Breakdown.Dynamic = bIdle, bDynamic
		if err := batch.flush(&res.QoS, capacity); err != nil {
			return err
		}
	}
	return nil
}

// foldLowerBound integrates the theoretical optimum: the ideal
// combination's draw at the instantaneous load, every rate served.
func foldLowerBound(tr *trace.Trace, solver *bml.ExactSolver, res *Result) error {
	for day := 0; day*trace.SecondsPerDay < tr.Len(); day++ {
		w := dayWindow(tr, day)
		s := res.openDay(day)
		var batch runBatch
		for i := 0; i < len(w); {
			j := runEnd(w, i)
			dt := float64(j - i)
			demand := w[i]
			p := solver.PowerAt(demand)
			if !p.IsValid() {
				return power.ErrNegativePower
			}
			e := float64(float64(p) * dt)
			s.total, s.totalComp = power.NeumaierAdd(s.total, s.totalComp, e)
			s.day, s.dayComp = power.NeumaierAdd(s.day, s.dayComp, e)
			if batch.add(demand, dt) {
				if err := batch.flush(&res.QoS, math.Inf(1)); err != nil {
					return err
				}
			}
			i = j
		}
		res.closeDay(day, s)
		if err := batch.flush(&res.QoS, math.Inf(1)); err != nil {
			return err
		}
	}
	return nil
}
