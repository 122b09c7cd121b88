package predict

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func mkTrace(t *testing.T, vals []float64) *trace.Trace {
	t.Helper()
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLookaheadMaxMatchesWindowMax(t *testing.T) {
	tr := mkTrace(t, []float64{1, 9, 2, 7, 3, 8, 0})
	p, err := NewLookaheadMax(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if got, want := p.Predict(i), tr.MaxInWindow(i, 3); got != want {
			t.Errorf("Predict(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestLookaheadMaxSeesAhead(t *testing.T) {
	// A spike 100 seconds out must be visible to a 378 s window — the
	// mechanism that lets the paper's scheduler boot Big machines in time.
	vals := make([]float64, 500)
	vals[300] = 1000
	tr := mkTrace(t, vals)
	p, err := NewLookaheadMax(tr, 378)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(200); got != 1000 {
		t.Errorf("Predict(200) = %v, want spike 1000 visible", got)
	}
	if got := p.Predict(301); got != 0 {
		t.Errorf("Predict(301) = %v, want 0 after the spike", got)
	}
}

func TestLookaheadMaxClampsOutOfRange(t *testing.T) {
	tr := mkTrace(t, []float64{5, 6, 7})
	p, err := NewLookaheadMax(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Predict(-1) != p.Predict(0) {
		t.Error("negative t not clamped")
	}
	if p.Predict(99) != p.Predict(2) {
		t.Error("past-the-end t not clamped")
	}
}

func TestLookaheadMaxValidation(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	if _, err := NewLookaheadMax(tr, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewLookaheadMax(tr, -5); err == nil {
		t.Error("negative window accepted")
	}
}

func TestLookaheadMaxAccessors(t *testing.T) {
	tr := mkTrace(t, []float64{1, 2})
	p, _ := NewLookaheadMax(tr, 378)
	if got := p.Name(); got != "lookahead-max(378s)" {
		t.Errorf("Name = %q, want the window in it", got)
	}
}

func TestOracle(t *testing.T) {
	tr := mkTrace(t, []float64{3, 1, 4})
	p := NewOracle(tr)
	for i, want := range []float64{3, 1, 4} {
		if got := p.Predict(i); got != want {
			t.Errorf("Predict(%d) = %v, want %v", i, got, want)
		}
	}
	if p.Name() != "oracle" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestLastValue(t *testing.T) {
	tr := mkTrace(t, []float64{3, 1, 4})
	p := NewLastValue(tr)
	if got := p.Predict(2); got != 1 {
		t.Errorf("Predict(2) = %v, want previous sample 1", got)
	}
	// t=0 clamps to the first sample.
	if got := p.Predict(0); got != 3 {
		t.Errorf("Predict(0) = %v, want 3", got)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 50
	}
	tr := mkTrace(t, vals)
	p, err := NewEWMA(tr, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(150); math.Abs(got-50) > 1e-9 {
		t.Errorf("EWMA on constant trace = %v, want 50", got)
	}
}

func TestEWMALagsSteps(t *testing.T) {
	vals := make([]float64, 100)
	for i := 50; i < 100; i++ {
		vals[i] = 100
	}
	tr := mkTrace(t, vals)
	p, err := NewEWMA(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Right at the step the smoothed value is still near 0.
	if got := p.Predict(50); got > 10 {
		t.Errorf("EWMA at step = %v, want small (lagging)", got)
	}
	// Long after, it approaches 100 from below.
	after := p.Predict(99)
	if after < 90 || after > 100 {
		t.Errorf("EWMA long after step = %v, want ≈100", after)
	}
}

func TestEWMAValidation(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	for _, a := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewEWMA(tr, a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
	p, err := NewEWMA(tr, 1)
	if err != nil {
		t.Fatalf("alpha=1 rejected: %v", err)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestErrorInjectorZeroErrorIsIdentity(t *testing.T) {
	tr := mkTrace(t, []float64{10, 20, 30})
	inner := NewOracle(tr)
	p, err := NewErrorInjector(inner, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if p.Predict(i) != inner.Predict(i) {
			t.Errorf("zero-error injector altered prediction at %d", i)
		}
	}
}

func TestErrorInjectorDeterministicPerSecond(t *testing.T) {
	tr := mkTrace(t, []float64{100, 100, 100})
	inner := NewOracle(tr)
	p, err := NewErrorInjector(inner, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Predict(1) != p.Predict(1) {
		t.Error("repeated query returned different values")
	}
	// Different seconds should (almost surely) differ.
	if p.Predict(0) == p.Predict(1) && p.Predict(1) == p.Predict(2) {
		t.Error("error injection constant across seconds")
	}
}

func TestErrorInjectorBoundsAndMean(t *testing.T) {
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = 100
	}
	tr := mkTrace(t, vals)
	p, err := NewErrorInjector(NewOracle(tr), 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 5000; i++ {
		v := p.Predict(i)
		if v < 0 {
			t.Fatalf("negative prediction %v", v)
		}
		if v < 100*(1-0.31) || v > 100*(1+0.31) {
			t.Fatalf("prediction %v outside 3-sigma bound", v)
		}
		sum += v
	}
	mean := sum / 5000
	if math.Abs(mean-100) > 1 {
		t.Errorf("mean prediction %v drifted from 100", mean)
	}
}

func TestErrorInjectorValidation(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	if _, err := NewErrorInjector(nil, 0.1, 1); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewErrorInjector(NewOracle(tr), -0.1, 1); err == nil {
		t.Error("negative error accepted")
	}
	if _, err := NewErrorInjector(NewOracle(tr), 1.5, 1); err == nil {
		t.Error("error > 1 accepted")
	}
}

func TestErrorInjectorName(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	p, _ := NewErrorInjector(NewOracle(tr), 0.2, 1)
	if p.Name() != "oracle+err(20%)" {
		t.Errorf("Name = %q", p.Name())
	}
}
