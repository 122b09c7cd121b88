package power

import (
	"math"
	"strings"
	"testing"
)

func TestBreakdownTotalAndAdd(t *testing.T) {
	a := Breakdown{Transition: 10, Idle: 20, Dynamic: 30}
	if a.Total() != 60 {
		t.Errorf("Total = %v", a.Total())
	}
	b := Breakdown{Transition: 1, Idle: 2, Dynamic: 3}
	a.Add(b)
	if a.Transition != 11 || a.Idle != 22 || a.Dynamic != 33 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestBreakdownShares(t *testing.T) {
	b := Breakdown{Transition: 10, Idle: 40, Dynamic: 50}
	if got := b.IdleShare(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("IdleShare = %v", got)
	}
	var empty Breakdown
	if empty.IdleShare() != 0 {
		t.Error("empty breakdown share not zero")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Transition: 100, Idle: 400, Dynamic: 500}
	s := b.String()
	if !strings.Contains(s, "40.0%") || !strings.Contains(s, "idle") {
		t.Errorf("String = %q", s)
	}
	var empty Breakdown
	if empty.String() != "breakdown: empty" {
		t.Errorf("empty String = %q", empty.String())
	}
}
