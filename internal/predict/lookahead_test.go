package predict

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// slidingMaxOracle is the dense block-wise sliding maximum LookaheadMax
// used to store, one value per second: a backward pass of per-block suffix
// maxima, then a forward pass growing the next block's prefix maximum. It
// is kept verbatim as the bit-exact oracle for the run-length predictor.
func slidingMaxOracle(values []float64, width int) []float64 {
	n := len(values)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	suffix := out
	for start := ((n - 1) / width) * width; start >= 0; start -= width {
		end := start + width
		if end > n {
			end = n
		}
		m := values[end-1]
		suffix[end-1] = m
		for j := end - 2; j >= start; j-- {
			if v := values[j]; v > m {
				m = v
			}
			suffix[j] = m
		}
	}
	r := width - 1
	if r > n-1 {
		r = n - 1
	}
	prefix := 0.0
	iEnd := width
	rEnd := r/width*width + width
	for i := 0; i < n; i++ {
		if i == iEnd {
			iEnd += width
		}
		if r < iEnd {
			out[i] = suffix[i]
		} else if prefix > suffix[i] {
			out[i] = prefix
		} else {
			out[i] = suffix[i]
		}
		if r < n-1 {
			r++
			if r == rEnd {
				prefix = values[r]
				rEnd += width
			} else if v := values[r]; v > prefix {
				prefix = v
			}
		}
	}
	return out
}

// lookaheadInputs returns traces of n samples that stress the run encoder:
// per-second noise, long plateaus mixing 0 and -0 with a few levels, and
// all-zero stretches (of both signs) broken by rare spikes.
func lookaheadInputs(n int, rng *rand.Rand) map[string][]float64 {
	noise := make([]float64, n)
	plateaus := make([]float64, n)
	zeros := make([]float64, n)
	levels := []float64{0, math.Copysign(0, -1), 3, 7.5, 7.5, 100}
	level := levels[0]
	for i := 0; i < n; i++ {
		noise[i] = rng.Float64() * 100
		if rng.Intn(40) == 0 {
			level = levels[rng.Intn(len(levels))]
		}
		plateaus[i] = level
		switch {
		case rng.Intn(60) == 0:
			zeros[i] = float64(1 + rng.Intn(3))
		case (i/25)%2 == 1:
			zeros[i] = math.Copysign(0, -1)
		}
	}
	return map[string][]float64{"noise": noise, "plateaus": plateaus, "zeros": zeros}
}

// TestLookaheadMaxMatchesDenseOracle compares every prediction, clamped
// seconds included, with the dense oracle bit for bit, across every trace
// size up to 500 and the block-decomposition edge widths. The dense
// trace.SlidingMax, built on the same kernel, must match too.
func TestLookaheadMaxMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for n := 1; n <= 500; n++ {
		for kind, vals := range lookaheadInputs(n, rng) {
			tr := mkTrace(t, vals)
			for _, width := range []int{1, n - 1, n, n + 1, 2*n + 3, 1000} {
				if width <= 0 {
					continue
				}
				want := slidingMaxOracle(vals, width)
				p, err := NewLookaheadMax(tr, width)
				if err != nil {
					t.Fatal(err)
				}
				for tt := -3; tt < n+3; tt++ {
					w := want[max(0, min(tt, n-1))]
					if got := p.Predict(tt); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s n=%d width=%d: Predict(%d) = %v, oracle %v", kind, n, width, tt, got, w)
					}
				}
				dense, err := tr.SlidingMax(width)
				if err != nil {
					t.Fatal(err)
				}
				for i := range dense {
					if math.Float64bits(dense[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d width=%d: SlidingMax[%d] = %v, oracle %v", kind, n, width, i, dense[i], want[i])
					}
				}
			}
		}
	}
}

// TestLookaheadMaxRunContract walks PredictRun across and past the trace:
// every second of a reported run predicts the run's bits and reports the
// same end, the end is the first second whose bits differ, and only the
// last run is open-ended.
func TestLookaheadMaxRunContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 64, 65, 129, 500} {
		for kind, vals := range lookaheadInputs(n, rng) {
			tr := mkTrace(t, vals)
			for _, width := range []int{1, 3, 64, n, 2*n + 3} {
				p, err := NewLookaheadMax(tr, width)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s n=%d width=%d", kind, n, width)
				for tt := -3; tt < n+3; {
					v, end := p.PredictRun(tt)
					if end <= tt {
						t.Fatalf("%s: run at %d ends at %d", name, tt, end)
					}
					bits := math.Float64bits(v)
					for u := tt; u < min(end, n+3); u++ {
						if got := p.Predict(u); math.Float64bits(got) != bits {
							t.Fatalf("%s: second %d predicts %v inside a run of %v [%d, %d)", name, u, got, v, tt, end)
						}
						if _, e := p.PredictRun(u); e != end {
							t.Fatalf("%s: second %d reports end %d inside a run ending at %d", name, u, e, end)
						}
					}
					if end == math.MaxInt {
						if tt >= n {
							break
						}
						if last := p.Predict(n - 1); math.Float64bits(last) != bits {
							t.Fatalf("%s: open-ended run at %d is not the last", name, tt)
						}
						break
					}
					if got := p.Predict(end); math.Float64bits(got) == bits {
						t.Fatalf("%s: run [%d, %d) ends but second %d still predicts %v", name, tt, end, end, got)
					}
					tt = end
				}
			}
		}
	}
}

// TestLookaheadMaxMemory holds the predictor to run-length storage: over
// three days of World Cup load, at the paper's 378 s window and at a
// window far longer than the trace, it allocates a small fraction of one
// float64 per second.
func TestLookaheadMaxMemory(t *testing.T) {
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 3
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense := uint64(tr.Len()) * 8
	for _, window := range []int{378, 1_890_000_000_000} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := NewLookaheadMax(tr, window)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > dense/8 {
			t.Errorf("window %d: %d bytes allocated for %d runs, want under %d (an eighth of a dense array)",
				window, alloc, len(p.starts), dense/8)
		}
		runtime.KeepAlive(p)
	}
}
