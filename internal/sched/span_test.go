package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/predict"
	"repro/internal/trace"
)

// hideRuns exposes only the Predictor methods of a run-aware predictor, so
// the scheduler scans it one second at a time.
type hideRuns struct{ predict.Predictor }

// spanRun is what a DecideSpan-driven run leaves behind: every span it
// integrated and the scheduler's counters.
type spanRun struct {
	spans                                      [][2]int
	decisions, skipped, adjustments, ons, offs int
	migration                                  float64
}

// driveSpans runs sc over tr the way the interval integrator does: one
// DecideSpan per span, spans bounded by limit-second chunks and by the
// scheduler's wake-ups, and one demand fold per span.
func driveSpans(t *testing.T, sc *Scheduler, tr *trace.Trace, chunk int) spanRun {
	t.Helper()
	var out spanRun
	n := tr.Len()
	for tt := 0; tt < n; {
		limit := min((tt/chunk+1)*chunk, n)
		_, next, err := sc.DecideSpan(tt, limit)
		if err != nil {
			t.Fatal(err)
		}
		if w := sc.NextWake(); w > 0 {
			next = min(next, tt+int(math.Ceil(w-1e-9)))
		}
		next = max(next, tt+1)
		fold := sc.StartDemandFold()
		for s := tt; s < next; s++ {
			if _, err := fold.Observe(tr.At(s), 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sc.FinishDemandFold(fold, float64(next-tt)); err != nil {
			t.Fatal(err)
		}
		out.spans = append(out.spans, [2]int{tt, next})
		tt = next
	}
	out.decisions, out.skipped, out.adjustments = sc.Decisions(), sc.Skipped(), sc.Adjustments()
	out.ons, out.offs = sc.SwitchOns(), sc.SwitchOffs()
	out.migration = float64(sc.MigrationEnergy())
	return out
}

// rawSpanTrace is a raw 1 Hz load: a slow wave with per-second noise,
// interrupted by plateaus, so look-ahead runs range from one second to
// hundreds and the scheduler both acts and idles.
func rawSpanTrace(t *testing.T) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	vals := make([]float64, 6000)
	for i := range vals {
		v := 120 + 100*math.Sin(float64(i)/400) + rng.NormFloat64()*8
		if (i/700)%3 == 2 {
			v = float64(40 + 30*((i/700)%4)) // plateau
		}
		vals[i] = math.Max(v, 0)
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDecideSpanRunsMatchSeconds holds the run-stepping scan to the
// one-second scan: the same scheduler config over a raw trace, once with
// LookaheadMax reporting its runs and once with them hidden, must
// integrate the same spans and end with the same counters.
func TestDecideSpanRunsMatchSeconds(t *testing.T) {
	tr := rawSpanTrace(t)
	migrating := app.StatelessWebServer()
	migrating.Migration.Energy = 50
	migrating.Migration.Duration = 5 * time.Second
	bounded := app.StatelessWebServer()
	bounded.Malleability = app.Malleability{MinInstances: 3, MaxInstances: 9}
	composed := app.StatelessWebServer()
	composed.Class = app.Critical
	composed.Migration = migrating.Migration
	composed.Malleability = bounded.Malleability
	configs := map[string]func(*Config){
		"paper":          nil,
		"headroom":       func(c *Config) { c.Headroom = 1.3 },
		"overhead-aware": func(c *Config) { c.OverheadAware, c.AmortizeSeconds = true, 40 },
		"app-migration":  func(c *Config) { c.App = &migrating },
		"malleability":   func(c *Config) { c.App = &bounded },
		"composed": func(c *Config) {
			c.App, c.OverheadAware, c.AmortizeSeconds = &composed, true, 40
		},
	}
	var skipped, adjustments int
	for name, mutate := range configs {
		for _, chunk := range []int{1000, 97} {
			runs, _ := rigWith(t, tr, mutate)
			seconds, _ := rigWith(t, tr, func(c *Config) {
				if mutate != nil {
					mutate(c)
				}
				c.Predictor = hideRuns{c.Predictor}
			})
			if _, ok := seconds.pred.(secondRuns); !ok {
				t.Fatalf("%s: hidden predictor still reports runs", name)
			}
			got, want := driveSpans(t, runs, tr, chunk), driveSpans(t, seconds, tr, chunk)
			if len(got.spans) != len(want.spans) {
				t.Fatalf("%s/%d: %d spans with runs, %d without", name, chunk, len(got.spans), len(want.spans))
			}
			for i := range got.spans {
				if got.spans[i] != want.spans[i] {
					t.Fatalf("%s/%d: span %d is %v with runs, %v without", name, chunk, i, got.spans[i], want.spans[i])
				}
			}
			if !reflect.DeepEqual(got, want) {
				got.spans, want.spans = nil, nil
				t.Errorf("%s/%d: counters %+v with runs, %+v without", name, chunk, got, want)
			}
			if got.decisions == 0 {
				t.Errorf("%s/%d: the scheduler never decided", name, chunk)
			}
			skipped += got.skipped
			adjustments += got.adjustments
		}
	}
	if skipped == 0 || adjustments == 0 {
		t.Errorf("no config exercised bulk counters: %d skipped, %d adjustments", skipped, adjustments)
	}
}
