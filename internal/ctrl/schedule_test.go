package ctrl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func constRate(r float64) func(time.Duration) float64 {
	return func(time.Duration) float64 { return r }
}

func TestPoissonScheduleValidation(t *testing.T) {
	if _, err := PoissonSchedule(1, 10, nil, time.Second); err == nil {
		t.Error("nil rate fn accepted")
	}
	if _, err := PoissonSchedule(1, 0, constRate(1), time.Second); err == nil {
		t.Error("zero max rate accepted")
	}
	if _, err := PoissonSchedule(1, 10, constRate(1), 0); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestPoissonScheduleDeterminism pins the package's documented guarantee:
// the same seed yields the identical arrival sequence, different seeds
// diverge. The differential replay harness depends on this.
func TestPoissonScheduleDeterminism(t *testing.T) {
	rate := func(el time.Duration) float64 {
		// Time-varying to exercise the thinning path.
		if el < 5*time.Second {
			return 20
		}
		return 80
	}
	a, err := PoissonSchedule(42, 100, rate, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonSchedule(42, 100, rate, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	at, bt := a.times, b.times
	if len(at) == 0 {
		t.Fatal("empty schedule")
	}
	if len(at) != len(bt) {
		t.Fatalf("same seed lengths differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("same seed arrival %d differs: %v vs %v", i, at[i], bt[i])
		}
	}
	c, err := PoissonSchedule(43, 100, rate, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ct := c.times
	same := len(ct) == len(at)
	if same {
		for i := range at {
			if at[i] != ct[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical arrival sequence")
	}
}

// TestPoissonScheduleShape sanity-checks the generated process: arrivals
// are ascending, within the horizon, and the count tracks the integrated
// rate (loosely — it is a random process).
func TestPoissonScheduleShape(t *testing.T) {
	const rate = 200.0
	const dur = 10 * time.Second
	s, err := PoissonSchedule(7, rate, constRate(rate), dur)
	if err != nil {
		t.Fatal(err)
	}
	times := s.times
	prev := time.Duration(-1)
	for i, at := range times {
		if at < 0 || at >= dur {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, at, dur)
		}
		if at < prev {
			t.Fatalf("arrival %d at %v before predecessor %v", i, at, prev)
		}
		prev = at
	}
	want := rate * dur.Seconds()
	if n := float64(len(times)); n < want*0.8 || n > want*1.2 {
		t.Errorf("arrival count %v far from expectation %v", n, want)
	}
	if s.horizon != dur {
		t.Errorf("Duration() = %v, want %v", s.horizon, dur)
	}
	// A zero-rate schedule is empty: every candidate is thinned away.
	z, err := PoissonSchedule(7, rate, constRate(0), dur)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.times) != 0 {
		t.Errorf("zero-rate schedule has %d arrivals", len(z.times))
	}
}

// TestReplayFiresSchedule drives a small schedule against a live test
// server and checks every arrival is delivered open-loop.
func TestReplayFiresSchedule(t *testing.T) {
	var hits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintln(w, "ok")
	}))
	defer srv.Close()

	s, err := PoissonSchedule(11, 400, constRate(400), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.times) == 0 {
		t.Fatal("empty schedule")
	}
	res, err := replaySchedule(context.Background(), srv.URL, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != uint64(len(s.times)) {
		t.Errorf("server saw %d requests, schedule had %d", got, len(s.times))
	}
	if res.Completed != uint64(len(s.times)) || res.Failed != 0 {
		t.Errorf("replay result %d ok / %d failed, want %d / 0",
			res.Completed, res.Failed, len(s.times))
	}
}
