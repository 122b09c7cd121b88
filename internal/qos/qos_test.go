package qos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
)

func TestZeroValueReady(t *testing.T) {
	var tr Tracker
	if tr.Availability() != 1 {
		t.Errorf("empty tracker availability = %v, want 1", tr.Availability())
	}
	if tr.ViolationRatio() != 0 || tr.LostRequests() != 0 || tr.Seconds() != 0 {
		t.Error("zero value not clean")
	}
}

func TestObserveAccounting(t *testing.T) {
	var tr Tracker
	if err := tr.Observe(100, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(100, 60, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Seconds() != 3 {
		t.Errorf("Seconds = %v", tr.Seconds())
	}
	if tr.ViolationSeconds() != 1 {
		t.Errorf("ViolationSeconds = %v, want 1", tr.ViolationSeconds())
	}
	if tr.LostRequests() != 40 {
		t.Errorf("LostRequests = %v, want 40", tr.LostRequests())
	}
	if tr.TotalRequests() != 200 {
		t.Errorf("TotalRequests = %v, want 200", tr.TotalRequests())
	}
	if got := tr.Availability(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Availability = %v, want 0.8", got)
	}
	if got := tr.ViolationRatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ViolationRatio = %v, want 1/3", got)
	}
}

func TestObserveValidation(t *testing.T) {
	var tr Tracker
	if err := tr.Observe(10, 5, -1); err == nil {
		t.Error("negative dt accepted")
	}
	if err := tr.Observe(-1, 0, 1); err == nil {
		t.Error("negative offered accepted")
	}
	if err := tr.Observe(1, -1, 1); err == nil {
		t.Error("negative served accepted")
	}
	if err := tr.Observe(1, 2, 1); err == nil {
		t.Error("served > offered accepted")
	}
	if err := tr.Observe(math.NaN(), 0, 1); err == nil {
		t.Error("NaN offered accepted")
	}
	if tr.Seconds() != 0 {
		t.Error("failed observations mutated state")
	}
}

func TestObserveToleratesFloatNoise(t *testing.T) {
	var tr Tracker
	// served exceeding offered by under 1e-9 (float noise) must pass.
	if err := tr.Observe(1.0, 1.0+1e-12, 1); err != nil {
		t.Errorf("tiny float excess rejected: %v", err)
	}
}

// TestObserveRunsMatchesObserveLoop holds ObserveRuns bit-identical to one
// Observe call per interval, shortfalls and zero rates included, on top of
// earlier observations.
func TestObserveRunsMatchesObserveLoop(t *testing.T) {
	offered := []float64{0, 3.5, 120, 7, 0, 0.1, 250, 100}
	dt := []float64{2, 3, 1, 2, 1, 1, 2, 1}
	for _, capacity := range []float64{100, math.Inf(1)} {
		var got, want Tracker
		for _, tr := range []*Tracker{&got, &want} {
			if err := tr.Observe(5, 4, 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := got.ObserveRuns(offered, dt, capacity); err != nil {
			t.Fatal(err)
		}
		for k, o := range offered {
			if err := want.Observe(o, math.Min(o, capacity), dt[k]); err != nil {
				t.Fatal(err)
			}
		}
		if got != want {
			t.Errorf("capacity %v: ObserveRuns = %+v, Observe loop = %+v", capacity, got, want)
		}
	}
}

// TestFullyServedMatchesObserveRuns holds a tracker built from one
// full-service chain (seconds += dt, demand·dt into one compensated sum)
// bit-identical to observing the same runs with an infinite capacity:
// random runs, zero demand, the smallest subnormal and demands whose
// integral overflows.
func TestFullyServedMatchesObserveRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 5000)
	randomDt := make([]float64, len(random))
	for k := range random {
		random[k] = rng.Float64() * 3000
		if rng.Intn(10) == 0 {
			random[k] = 0
		}
		randomDt[k] = float64(1 + rng.Intn(600))
	}
	for _, c := range []struct {
		name        string
		offered, dt []float64
	}{
		{"random", random, randomDt},
		{"zero", []float64{0, 0, 0}, []float64{1, 5, 86400}},
		{"subnormal", []float64{5e-324, 0, 5e-324, 1, 5e-324}, []float64{1, 2, 3, 1, 7}},
		{"huge", []float64{math.MaxFloat64 / 2, 1, math.MaxFloat64 / 2, math.MaxFloat64 / 2}, []float64{1, 1, 1, 3}},
	} {
		var want Tracker
		if err := want.ObserveRuns(c.offered, c.dt, math.Inf(1)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var seconds float64
		var demand power.Accumulator
		for k, o := range c.offered {
			seconds += c.dt[k]
			demand.Add(o * c.dt[k])
		}
		got := FullyServed(seconds, demand)
		if math.Float64bits(got.Seconds()) != math.Float64bits(want.Seconds()) ||
			math.Float64bits(got.TotalRequests()) != math.Float64bits(want.TotalRequests()) ||
			got.ViolationSeconds() != 0 {
			t.Errorf("%s: FullyServed = %v s, %v requests, %v violation s; ObserveRuns = %v, %v, %v", c.name,
				got.Seconds(), got.TotalRequests(), got.ViolationSeconds(), want.Seconds(), want.TotalRequests(), want.ViolationSeconds())
		}
		// %v prints each float's shortest exact form, so equal strings mean
		// equal bits here, NaN sums of the overflowing case included.
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Errorf("%s: FullyServed = %s, ObserveRuns(+Inf) = %s", c.name, g, w)
		}
	}
}

func TestObserveRunsValidation(t *testing.T) {
	for _, c := range []struct {
		offered, dt []float64
		capacity    float64
	}{
		{[]float64{1, -1}, []float64{1, 1}, 10},
		{[]float64{math.NaN()}, []float64{1}, 10},
		{[]float64{1}, []float64{1}, -1},
		{[]float64{1}, []float64{1}, math.NaN()},
		{[]float64{1}, []float64{-1}, 10},
		{[]float64{1}, []float64{math.Inf(1)}, 10},
		{[]float64{1, 2}, []float64{1}, 10},
	} {
		var tr Tracker
		if err := tr.ObserveRuns(c.offered, c.dt, c.capacity); err == nil {
			t.Errorf("ObserveRuns(%v, %v, %v) accepted invalid input", c.offered, c.dt, c.capacity)
		}
	}
}

func TestString(t *testing.T) {
	var tr Tracker
	tr.Observe(10, 8, 1)
	if tr.String() == "" {
		t.Error("empty String")
	}
}
