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
