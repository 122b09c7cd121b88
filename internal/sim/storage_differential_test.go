package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestRunStorageMatchesDense holds every engine to the same Result on a
// run trace as on its dense twin (trace.New of the same samples): on
// quantized World Cup days, at widths that do and do not divide a day, and
// on their fleet-scaled copies, the integrator, the static fold (RunAll),
// RunBMLRecorded and the tick oracle must give Results that are == field
// by field, unexported compensation terms included. The engines read runs
// through trace.Trace.Runs, which merges neighbours that compare equal on
// either storage, so where a run ends — and with it every energy add — is
// the same on both.
func TestRunStorageMatchesDense(t *testing.T) {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 2
	cfg.Seed = 23
	raw, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := newSweepCache()
	for _, width := range []int{600, 7} {
		quantized, err := raw.Quantize(width)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := trace.New(quantized.Values())
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1, 0.37, 3} {
			runs, twin := quantized, dense
			if scale != 1 {
				if runs, err = cache.scaledTrace(quantized, scale); err != nil {
					t.Fatal(err)
				}
				if twin, err = cache.scaledTrace(dense, scale); err != nil {
					t.Fatal(err)
				}
			}
			name := fmt.Sprintf("width=%d,scale=%v", width, scale)
			t.Run(name, func(t *testing.T) {
				if runs.Fingerprint() != twin.Fingerprint() {
					t.Fatal("the twins differ in their samples")
				}
				for _, engine := range []struct {
					name string
					opts []Option
				}{{"integrator", nil}, {"tick", []Option{WithTickEngine()}}} {
					got, err := RunAll(runs, planner, BMLConfig{}, engine.opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := RunAll(twin, planner, BMLConfig{}, engine.opts...)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range []struct {
						name      string
						got, want *Result
					}{
						{"UpperBound Global", got.UpperBoundGlobal, want.UpperBoundGlobal},
						{"UpperBound PerDay", got.UpperBoundPerDay, want.UpperBoundPerDay},
						{"BML", got.BML, want.BML},
						{"LowerBound", got.LowerBound, want.LowerBound},
					} {
						assertBitIdentical(t, engine.name+"/"+s.name, s.got, s.want)
					}
					for _, bucket := range []int{3600, 1000} {
						got, err := RunBMLRecorded(runs, planner, BMLConfig{}, bucket, engine.opts...)
						if err != nil {
							t.Fatal(err)
						}
						want, err := RunBMLRecorded(twin, planner, BMLConfig{}, bucket, engine.opts...)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: RunBMLRecorded(bucket %d) differs between run and dense storage", engine.name, bucket)
						}
					}
				}
			})
		}
	}
}
