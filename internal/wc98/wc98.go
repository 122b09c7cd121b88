// Package wc98 is the Figure 5 evaluation harness: it runs the four
// scenarios of the paper's §V-C over a World Cup–shaped trace and computes
// the daily energy series and the BML-versus-lower-bound overhead summary
// ("on average over 86 days, it consumes 32% more energy than the lower
// bound, minimum 6.8% and maximum 161.4%").
package wc98

import (
	"errors"
	"fmt"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FirstDay and LastDay bound the evaluation range the paper uses (days 6 to
// 92 of the World Cup trace, 1-based).
const (
	FirstDay = 6
	LastDay  = 92
)

// Row is one day of the Figure 5 comparison.
type Row struct {
	Day        int // 1-based trace day
	UBGlobal   power.Joules
	UBPerDay   power.Joules
	BML        power.Joules
	LowerBound power.Joules
}

// OverheadPct returns the BML energy overhead over the lower bound for the
// day, in percent.
func (r Row) OverheadPct() float64 {
	if r.LowerBound == 0 {
		return 0
	}
	return (float64(r.BML)/float64(r.LowerBound) - 1) * 100
}

// Summary aggregates the evaluation the way the paper reports it.
type Summary struct {
	Days            int
	MeanOverheadPct float64
	MinOverheadPct  float64
	MaxOverheadPct  float64
	TotalUBGlobal   power.Joules
	TotalUBPerDay   power.Joules
	TotalBML        power.Joules
	TotalLowerBound power.Joules
	SavingsVsGlobal float64 // fraction of UB Global energy saved by BML
	SavingsVsPerDay float64 // fraction of UB PerDay energy saved by BML
}

func (s Summary) String() string {
	return fmt.Sprintf(
		"over %d days: BML vs lower bound: mean +%.1f%%, min +%.1f%%, max +%.1f%%; savings vs UB Global %.1f%%, vs UB PerDay %.1f%%",
		s.Days, s.MeanOverheadPct, s.MinOverheadPct, s.MaxOverheadPct,
		s.SavingsVsGlobal*100, s.SavingsVsPerDay*100)
}

// Evaluation holds the full Figure 5 output.
type Evaluation struct {
	Rows    []Row
	Summary Summary
	// Results gives access to the underlying scenario runs, keyed by
	// scenario name.
	Results map[string]*sim.Result
}

// Config parameterizes an evaluation run.
type Config struct {
	// FirstDay/LastDay bound the evaluated day range (1-based, inclusive).
	// Zero values default to the paper's 6 and 92 clamped to the trace.
	FirstDay, LastDay int
	// BML forwards scenario options to sim.RunBML.
	BML sim.BMLConfig
	// Sim forwards engine options (e.g. sim.WithTickEngine) to every
	// scenario run.
	Sim []sim.Option
}

// Run executes all four scenarios of §V-C over tr with the given machine
// catalog (the full Table I set; filtering happens inside the planner).
func Run(tr *trace.Trace, machines []profile.Arch, cfg Config) (*Evaluation, error) {
	if tr == nil {
		return nil, errors.New("wc98: nil trace")
	}
	planner, err := bml.NewPlanner(machines)
	if err != nil {
		return nil, err
	}
	first, last := cfg.FirstDay, cfg.LastDay
	if first == 0 {
		first = FirstDay
	}
	if last == 0 {
		last = LastDay
	}
	if last > tr.Days() {
		last = tr.Days()
	}
	if first < 1 || first > last {
		return nil, fmt.Errorf("wc98: invalid day range [%d, %d] for %d-day trace", first, last, tr.Days())
	}

	set, err := sim.RunAll(tr, planner, cfg.BML, cfg.Sim...)
	if err != nil {
		return nil, fmt.Errorf("wc98: scenarios: %w", err)
	}
	ubGlobal, ubPerDay := set.UpperBoundGlobal, set.UpperBoundPerDay
	bmlRes, lower := set.BML, set.LowerBound

	ev := &Evaluation{Results: map[string]*sim.Result{
		ubGlobal.Name: ubGlobal,
		ubPerDay.Name: ubPerDay,
		bmlRes.Name:   bmlRes,
		lower.Name:    lower,
	}}
	sum := Summary{
		MinOverheadPct: 1e300,
		MaxOverheadPct: -1e300,
	}
	var overheadSum float64
	for day := first; day <= last; day++ {
		i := day - 1
		row := Row{
			Day:        day,
			UBGlobal:   ubGlobal.DailyEnergy[i],
			UBPerDay:   ubPerDay.DailyEnergy[i],
			BML:        bmlRes.DailyEnergy[i],
			LowerBound: lower.DailyEnergy[i],
		}
		ev.Rows = append(ev.Rows, row)
		ov := row.OverheadPct()
		overheadSum += ov
		if ov < sum.MinOverheadPct {
			sum.MinOverheadPct = ov
		}
		if ov > sum.MaxOverheadPct {
			sum.MaxOverheadPct = ov
		}
		sum.TotalUBGlobal += row.UBGlobal
		sum.TotalUBPerDay += row.UBPerDay
		sum.TotalBML += row.BML
		sum.TotalLowerBound += row.LowerBound
	}
	sum.Days = len(ev.Rows)
	if sum.Days > 0 {
		sum.MeanOverheadPct = overheadSum / float64(sum.Days)
	}
	if sum.TotalUBGlobal > 0 {
		sum.SavingsVsGlobal = 1 - float64(sum.TotalBML)/float64(sum.TotalUBGlobal)
	}
	if sum.TotalUBPerDay > 0 {
		sum.SavingsVsPerDay = 1 - float64(sum.TotalBML)/float64(sum.TotalUBPerDay)
	}
	ev.Summary = sum
	return ev, nil
}
