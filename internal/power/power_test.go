package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearModelEndpoints(t *testing.T) {
	m, err := NewLinearModel(69.9, 200.5, 1331)
	if err != nil {
		t.Fatalf("NewLinearModel: %v", err)
	}
	if got := m.PowerAt(0); got != 69.9 {
		t.Errorf("PowerAt(0) = %v, want idle 69.9", got)
	}
	if got := m.PowerAt(1331); got != 200.5 {
		t.Errorf("PowerAt(max) = %v, want 200.5", got)
	}
	if got := m.PowerAt(1331.0 / 2); math.Abs(float64(got)-(69.9+200.5)/2) > 1e-9 {
		t.Errorf("PowerAt(mid) = %v, want midpoint %v", got, (69.9+200.5)/2)
	}
}

func TestLinearModelClamping(t *testing.T) {
	m, _ := NewLinearModel(10, 50, 100)
	if got := m.PowerAt(-5); got != 10 {
		t.Errorf("PowerAt(-5) = %v, want clamp to idle", got)
	}
	if got := m.PowerAt(1e9); got != 50 {
		t.Errorf("PowerAt(huge) = %v, want clamp to max", got)
	}
}

func TestLinearModelValidation(t *testing.T) {
	cases := []struct {
		name      string
		idle, max Watts
		maxRate   float64
	}{
		{"negative idle", -1, 50, 100},
		{"max below idle", 60, 50, 100},
		{"zero rate", 10, 50, 0},
		{"negative rate", 10, 50, -1},
		{"nan rate", 10, 50, math.NaN()},
		{"inf rate", 10, 50, math.Inf(1)},
		{"nan power", Watts(math.NaN()), 50, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewLinearModel(c.idle, c.max, c.maxRate); err == nil {
				t.Errorf("NewLinearModel(%v,%v,%v) accepted invalid input", c.idle, c.max, c.maxRate)
			}
		})
	}
}

func TestLinearModelMonotonic(t *testing.T) {
	f := func(idle, dyn, rate1, rate2 float64) bool {
		idle = math.Abs(math.Mod(idle, 500))
		dyn = math.Abs(math.Mod(dyn, 500))
		m, err := NewLinearModel(Watts(idle), Watts(idle+dyn), 1000)
		if err != nil {
			return true // skip degenerate draws
		}
		r1 := math.Abs(math.Mod(rate1, 1000))
		r2 := math.Abs(math.Mod(rate2, 1000))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return m.PowerAt(r1) <= m.PowerAt(r2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoulesConversions(t *testing.T) {
	e := Joules(3.6e6)
	if got := e.KilowattHours(); math.Abs(got-1) > 1e-12 {
		t.Errorf("KilowattHours = %v, want 1", got)
	}
}

func TestJoulesString(t *testing.T) {
	cases := []struct {
		e    Joules
		want string
	}{
		{5, "5.000 J"},
		{5e3, "5.000 kJ"},
		{5e6, "5.000 MJ"},
		{5e9, "5.000 GJ"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("(%v).String() = %q, want %q", float64(c.e), got, c.want)
		}
	}
}

func TestIPR(t *testing.T) {
	// Idle 50, peak 100 -> IPR 0.5 (the paper's "idle can amount to 50% of
	// peak" situation).
	curve := []CurvePoint{{0, 50}, {50, 75}, {100, 100}}
	got, err := IPR(curve)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("IPR = %v, want 0.5", got)
	}
}

func TestIPRPerfectProportionality(t *testing.T) {
	curve := []CurvePoint{{0, 0}, {100, 100}}
	got, err := IPR(curve)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("IPR = %v, want 0 for proportional system", got)
	}
}

func TestIPRErrors(t *testing.T) {
	if _, err := IPR([]CurvePoint{{0, 1}}); err != ErrCurveTooShort {
		t.Errorf("short curve: err = %v, want ErrCurveTooShort", err)
	}
	if _, err := IPR([]CurvePoint{{0, 0}, {10, 0}}); err == nil {
		t.Error("zero peak power accepted")
	}
}

func TestLDRLinearCurveIsZero(t *testing.T) {
	curve := []CurvePoint{{0, 10}, {25, 32.5}, {50, 55}, {100, 100}}
	got, err := LDR(curve)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Errorf("LDR of linear curve = %v, want 0", got)
	}
}

func TestLDRSignConvention(t *testing.T) {
	// Bulge above the line -> positive.
	above := []CurvePoint{{0, 0}, {50, 80}, {100, 100}}
	got, err := LDR(above)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Errorf("LDR above line = %v, want > 0", got)
	}
	// Sag below the line -> negative.
	below := []CurvePoint{{0, 0}, {50, 20}, {100, 100}}
	got, err = LDR(below)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 0 {
		t.Errorf("LDR below line = %v, want < 0", got)
	}
}

func TestProportionalityGap(t *testing.T) {
	// Flat consumption at peak level wastes maximally; ideal line area is
	// half the rectangle, so gap = 1.
	flat := []CurvePoint{{0, 100}, {100, 100}}
	got, err := ProportionalityGap(flat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("gap of flat curve = %v, want 1", got)
	}
	ideal := []CurvePoint{{0, 0}, {100, 100}}
	got, err = ProportionalityGap(ideal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Errorf("gap of proportional curve = %v, want 0", got)
	}
}

func TestSampleModel(t *testing.T) {
	m, _ := NewLinearModel(10, 110, 100)
	pts := SampleModel(m, 10)
	if len(pts) != 11 {
		t.Fatalf("len = %d, want 11", len(pts))
	}
	if pts[0].Utilization != 0 || pts[0].Power != 10 {
		t.Errorf("first point = %+v, want (0,10)", pts[0])
	}
	if pts[10].Utilization != 100 || pts[10].Power != 110 {
		t.Errorf("last point = %+v, want (100,110)", pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Power < pts[i-1].Power {
			t.Errorf("sampled curve not monotone at %d", i)
		}
	}
}

func TestSampleModelDegenerateN(t *testing.T) {
	m, _ := NewLinearModel(10, 110, 100)
	pts := SampleModel(m, 0)
	if len(pts) != 2 {
		t.Fatalf("n=0 coerced: len = %d, want 2", len(pts))
	}
}

func TestWattmeterNoiselessExactness(t *testing.T) {
	wm, err := NewWattmeter(1, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= 10; s++ {
		if _, err := wm.Observe(float64(s), 100); err != nil {
			t.Fatal(err)
		}
	}
	samples := wm.samples
	if len(samples) != 11 {
		t.Fatalf("samples = %d, want 11", len(samples))
	}
	for _, s := range samples {
		if s.Power != 100 {
			t.Errorf("noiseless reading %v != 100", s.Power)
		}
	}
}

func TestWattmeterMeanPowerWindow(t *testing.T) {
	wm, _ := NewWattmeter(1, 0, 1)
	for s := 0; s < 10; s++ {
		p := Watts(10)
		if s >= 5 {
			p = 20
		}
		if _, err := wm.Observe(float64(s), p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := wm.MeanPower(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("MeanPower[5,10) = %v, want 20", got)
	}
	got, err = wm.MeanPower(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("MeanPower[0,5) = %v, want 10", got)
	}
	if _, err := wm.MeanPower(100, 200); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := wm.MeanPower(5, 1); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestWattmeterNoiseBoundedAndDeterministic(t *testing.T) {
	wm1, _ := NewWattmeter(1, 0.015, 7)
	wm2, _ := NewWattmeter(1, 0.015, 7)
	for s := 0; s < 1000; s++ {
		if _, err := wm1.Observe(float64(s), 100); err != nil {
			t.Fatal(err)
		}
		if _, err := wm2.Observe(float64(s), 100); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := wm1.samples, wm2.samples
	if len(s1) != len(s2) {
		t.Fatalf("sample counts differ: %d vs %d", len(s1), len(s2))
	}
	var sum float64
	for i := range s1 {
		if s1[i].Power != s2[i].Power {
			t.Fatalf("same seed produced different readings at %d", i)
		}
		// 3-sigma bound at 1.5% noise: readings within ±4.5%.
		if s1[i].Power < 95.5 || s1[i].Power > 104.5 {
			t.Errorf("reading %v outside 3-sigma bound", s1[i].Power)
		}
		sum += float64(s1[i].Power)
	}
	mean := sum / float64(len(s1))
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("mean reading %v drifted from true 100", mean)
	}
}

func TestWattmeterSkippedIntervalsEmitCatchupSamples(t *testing.T) {
	wm, _ := NewWattmeter(1, 0, 3)
	if _, err := wm.Observe(0, 50); err != nil {
		t.Fatal(err)
	}
	n, err := wm.Observe(5.5, 80)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("catch-up emitted %d samples, want 5 (t=1..5)", n)
	}
}

func TestWattmeterConfigValidation(t *testing.T) {
	if _, err := NewWattmeter(0, 0.1, 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewWattmeter(1, -0.1, 1); err == nil {
		t.Error("negative noise accepted")
	}
	if _, err := NewWattmeter(1, 0.9, 1); err == nil {
		t.Error("excessive noise accepted")
	}
}

func TestWattmeterRejectsNegativePower(t *testing.T) {
	wm, _ := NewWattmeter(1, 0, 1)
	if _, err := wm.Observe(0, -1); err == nil {
		t.Error("negative power accepted")
	}
}

func TestWattmeterRejectsBackwardsTime(t *testing.T) {
	wm, _ := NewWattmeter(1, 0, 1)
	for s := 0; s <= 5; s++ {
		if _, err := wm.Observe(float64(s), 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wm.Observe(2, 10); err != ErrNonMonotonicTime {
		t.Errorf("observation before the last sample: err = %v, want ErrNonMonotonicTime", err)
	}
}
