package power

import (
	"math"
	"testing"
)

func TestIntervalEnergy(t *testing.T) {
	e, err := IntervalEnergy(250, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if e != 900000 {
		t.Errorf("250 W × 3600 s = %v, want 900 kJ", e)
	}
	if e, err := IntervalEnergy(42, 0); err != nil || e != 0 {
		t.Errorf("zero duration: %v, %v", e, err)
	}
	if _, err := IntervalEnergy(-1, 10); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := IntervalEnergy(10, -1); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := IntervalEnergy(10, math.Inf(1)); err == nil {
		t.Error("infinite duration accepted")
	}
}

func TestEnergyOverMatchesStepIntegrator(t *testing.T) {
	m, err := NewLinearModel(20, 80, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The closed-form interval energy equals per-second step integration
	// at constant utilization — the closed-form engines' core identity.
	const rate, secs = 37.5, 600
	var si StepIntegrator
	for i := 0; i < secs; i++ {
		if err := si.Add(m.PowerAt(rate), 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := EnergyOver(m, rate, secs)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(float64(got - si.Total())); diff > 1e-9 {
		t.Errorf("closed form %v vs step-integrated %v (diff %g)", got, si.Total(), diff)
	}
	if _, err := EnergyOver(nil, 1, 1); err == nil {
		t.Error("nil model accepted")
	}
}
