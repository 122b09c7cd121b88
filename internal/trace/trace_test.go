package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
	for _, bad := range [][]float64{{-1}, {math.NaN()}, {math.Inf(1)}, {1, 2, -0.5}} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%v) accepted invalid values", bad)
		}
	}
	tr, err := New([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []float64{1, 2, 3}
	tr := MustNew(in)
	in[0] = 99
	if tr.At(0) != 1 {
		t.Error("New did not copy its input")
	}
}

func TestAtClamps(t *testing.T) {
	tr := MustNew([]float64{10, 20, 30})
	if tr.At(-5) != 10 {
		t.Errorf("At(-5) = %v, want first sample", tr.At(-5))
	}
	if tr.At(99) != 30 {
		t.Errorf("At(99) = %v, want last sample", tr.At(99))
	}
	if tr.At(1) != 20 {
		t.Errorf("At(1) = %v", tr.At(1))
	}
}

func TestSlice(t *testing.T) {
	tr := MustNew([]float64{0, 1, 2, 3, 4})
	s, err := tr.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.At(0) != 1 || s.At(2) != 3 {
		t.Errorf("Slice = %v", s.Values())
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {3, 3}, {4, 2}} {
		if _, err := tr.Slice(bad[0], bad[1]); err == nil {
			t.Errorf("Slice(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestDayAndDays(t *testing.T) {
	vals := make([]float64, 2*SecondsPerDay+100)
	for i := range vals {
		vals[i] = float64(i / SecondsPerDay)
	}
	tr := MustNew(vals)
	if tr.Days() != 2 {
		t.Fatalf("Days = %d, want 2", tr.Days())
	}
	d1, err := tr.Day(1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != SecondsPerDay || d1.At(0) != 0 {
		t.Errorf("Day(1) wrong: len=%d first=%v", d1.Len(), d1.At(0))
	}
	d2, err := tr.Day(2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.At(0) != 1 {
		t.Errorf("Day(2) first = %v, want 1", d2.At(0))
	}
	if _, err := tr.Day(3); err == nil {
		t.Error("incomplete day 3 accepted")
	}
}

func TestMaxMeanSummary(t *testing.T) {
	tr := MustNew([]float64{1, 5, 3, 2, 4})
	if tr.Max() != 5 {
		t.Errorf("Max = %v", tr.Max())
	}
	if tr.Mean() != 3 {
		t.Errorf("Mean = %v", tr.Mean())
	}
	s := tr.Summary()
	if s.Samples != 5 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	if s.P99 != 5 {
		t.Errorf("P99 = %v, want 5", s.P99)
	}
}

func TestMaxInWindow(t *testing.T) {
	tr := MustNew([]float64{1, 9, 2, 7, 3})
	cases := []struct {
		from, width int
		want        float64
	}{
		{0, 2, 9}, {1, 1, 9}, {2, 3, 7}, {2, 100, 7}, {4, 5, 3},
		{-3, 2, 9},  // negative from clamps to 0
		{100, 5, 3}, // past-the-end clamps to last sample
		{0, 0, 0},   // empty window
	}
	for _, c := range cases {
		if got := tr.MaxInWindow(c.from, c.width); got != c.want {
			t.Errorf("MaxInWindow(%d,%d) = %v, want %v", c.from, c.width, got, c.want)
		}
	}
}

// TestSlidingMaxMatchesNaive checks SlidingMax against MaxInWindow's
// direct scan at the block-decomposition edges (width 1, n−1, n, n+1 and
// beyond, a single-sample trace under every width), on random and on
// falling loads (every sample of a window then stays in the run kernel's
// queue), stored dense and as runs, and that the result is a fresh array:
// the trace is untouched when the caller writes to it.
func TestSlidingMaxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k, n := range []int{1, 2, 3, 5, 63, 64, 65, 130, 500, 1, 64, 500} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
			if k >= 9 {
				vals[i] = float64(n - i)
			}
		}
		dense := MustNew(vals)
		for _, tr := range []*Trace{dense, asRuns(t, dense)} {
			for _, width := range []int{1, 2, 7, 50, n - 1, n, n + 1, 2*n + 3, 1000} {
				if width <= 0 {
					continue
				}
				fast, err := tr.SlidingMax(width)
				if err != nil {
					t.Fatal(err)
				}
				if len(fast) != n {
					t.Fatalf("n %d, width %d: len %d", n, width, len(fast))
				}
				for i := range vals {
					if want := dense.MaxInWindow(i, width); fast[i] != want {
						t.Fatalf("n %d, width %d, i %d: SlidingMax = %v, naive = %v", n, width, i, fast[i], want)
					}
				}
				fast[0] = -1
				if tr.At(0) != vals[0] {
					t.Fatalf("n %d, width %d: SlidingMax's result aliases the trace", n, width)
				}
			}
		}
	}
	if _, err := MustNew([]float64{1}).SlidingMax(0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestSlidingMaxProperty(t *testing.T) {
	f := func(raw []float64, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Abs(math.Mod(v, 1000))
		}
		width := int(w)%50 + 1
		tr := MustNew(vals)
		fast, err := tr.SlidingMax(width)
		if err != nil {
			return false
		}
		for i := range vals {
			if fast[i] != tr.MaxInWindow(i, width) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	tr := MustNew([]float64{1, 2, 3})
	s, err := tr.Scale(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(2) != 7.5 {
		t.Errorf("scaled = %v", s.Values())
	}
	if _, err := tr.Scale(-1); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := tr.Scale(math.NaN()); err == nil {
		t.Error("NaN scale accepted")
	}
}

func TestDailyPeaks(t *testing.T) {
	vals := make([]float64, 2*SecondsPerDay)
	vals[100] = 50             // day 1 peak
	vals[SecondsPerDay+7] = 80 // day 2 peak
	tr := MustNew(vals)
	peaks := tr.DailyPeaks()
	if len(peaks) != 2 || peaks[0] != 50 || peaks[1] != 80 {
		t.Errorf("DailyPeaks = %v", peaks)
	}
}

func TestReadBareFormat(t *testing.T) {
	in := "# comment\n1.5\n\n2.5\n3\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.5, 3}
	got := tr.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Read[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReadIndexedFormat(t *testing.T) {
	in := "0,10\n1, 20\n2,30\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.At(1) != 20 {
		t.Errorf("indexed read = %v", tr.Values())
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"abc\n",
		"0,xyz\n",
		"5,10\n",     // non-contiguous index
		"0,1\n2,2\n", // gap
		"0,-3\n",     // negative rate fails trace validation
		"",           // empty
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) accepted", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := MustNew([]float64{0, 1.25, 3e4, 7})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip len %d != %d", back.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if back.At(i) != tr.At(i) {
			t.Errorf("round trip [%d] = %v, want %v", i, back.At(i), tr.At(i))
		}
	}
}

func TestGenerateWorldCupBasicInvariants(t *testing.T) {
	cfg := WorldCupConfig{Days: 4, PeakRate: 1000, Seed: 7, Noise: 0.05}
	tr, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4*SecondsPerDay {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Max(); math.Abs(got-1000) > 1000*0x1p-52 {
		t.Errorf("Max = %v, want PeakRate up to one rounding", got)
	}
	for i := 0; i < tr.Len(); i += 997 {
		if tr.At(i) < 0 {
			t.Fatalf("negative sample at %d", i)
		}
	}
}

func TestGenerateWorldCupDeterministic(t *testing.T) {
	cfg := WorldCupConfig{Days: 2, PeakRate: 500, Seed: 42, Noise: 0.05}
	a, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i += 1009 {
		if a.At(i) != b.At(i) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	cfg.Seed = 43
	c, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.Len(); i += 1009 {
		if a.At(i) != c.At(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateWorldCupTournamentShape(t *testing.T) {
	cfg := DefaultWorldCupConfig()
	cfg.Noise = 0 // deterministic shape check
	tr, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peaks := tr.DailyPeaks()
	// Early tournament days are far below the finals period.
	early := peaks[5] // day 6
	var finalsMax float64
	for d := 60; d < 80 && d < len(peaks); d++ {
		if peaks[d] > finalsMax {
			finalsMax = peaks[d]
		}
	}
	if finalsMax < 5*early {
		t.Errorf("finals peak %v not ≫ early-day peak %v", finalsMax, early)
	}
	// Post-final decay: last day far below the maximum.
	if peaks[len(peaks)-1] > finalsMax/3 {
		t.Errorf("no post-final decay: last=%v finals=%v", peaks[len(peaks)-1], finalsMax)
	}
	// Diurnal structure: night trough well below daily peak on a big day.
	day70, err := tr.Day(70)
	if err != nil {
		t.Fatal(err)
	}
	night := day70.MaxInWindow(3*3600, 2*3600)    // 03:00–05:00
	evening := day70.MaxInWindow(19*3600, 3*3600) // 19:00–22:00
	if night > evening/2 {
		t.Errorf("diurnal cycle too flat: night=%v evening=%v", night, evening)
	}
}

func TestGenerateWorldCupDefaultsMatchPaperScale(t *testing.T) {
	cfg := DefaultWorldCupConfig()
	if cfg.Days != 92 {
		t.Errorf("default days = %d, want 92", cfg.Days)
	}
	// The paper's UpperBound Global holds 4 Paravance machines
	// (maxPerf 1331), so the peak must need exactly 4.
	if n := math.Ceil(cfg.PeakRate / 1331); n != 4 {
		t.Errorf("default peak %v needs %v Big machines, want 4", cfg.PeakRate, n)
	}
}

func TestGenerateWorldCupValidation(t *testing.T) {
	for _, cfg := range []WorldCupConfig{
		{Days: 0, PeakRate: 100},
		{Days: 1, PeakRate: 0},
		{Days: 1, PeakRate: math.NaN()},
		{Days: 1, PeakRate: 100, Noise: -0.1},
		{Days: 1, PeakRate: 100, Noise: 0.9},
	} {
		if _, err := GenerateWorldCup(cfg); err == nil {
			t.Errorf("GenerateWorldCup(%+v) accepted", cfg)
		}
	}
}

// TestMaxMatchesScan checks the maximum cached at construction against a
// direct scan of the samples, for a trace from every constructor.
func TestMaxMatchesScan(t *testing.T) {
	scan := func(tr *Trace) float64 {
		m := 0.0
		for _, v := range tr.Values() {
			if v > m {
				m = v
			}
		}
		return m
	}
	base := MustNew([]float64{3, 0, 9.5, math.Copysign(0, -1), 9.25, 1})
	cfg := DefaultWorldCupConfig()
	cfg.Days = 2
	wc, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, wc); err != nil {
		t.Fatal(err)
	}
	built := map[string]func() (*Trace, error){
		"New":              func() (*Trace, error) { return New([]float64{2, 7, 7, 1}) },
		"New all -0":       func() (*Trace, error) { return New([]float64{math.Copysign(0, -1)}) },
		"Quantize":         func() (*Trace, error) { return base.Quantize(4) },
		"Scale":            func() (*Trace, error) { return base.Scale(1.7) },
		"Slice":            func() (*Trace, error) { return base.Slice(3, 6) },
		"Read":             func() (*Trace, error) { return Read(bytes.NewReader(buf.Bytes())) },
		"GenerateWorldCup": func() (*Trace, error) { return wc, nil },
		"FromAccessLog": func() (*Trace, error) {
			tr, _, err := FromAccessLog(strings.NewReader(strings.Join([]string{
				clfLine("01/Jul/1998:12:00:00 +0000"),
				clfLine("01/Jul/1998:12:00:02 +0000"),
				clfLine("01/Jul/1998:12:00:02 +0000"),
			}, "\n")))
			return tr, err
		},
	}
	for name, build := range built {
		tr, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := tr.Max(), scan(tr); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Max = %v, scan = %v", name, got, want)
		}
	}
}

// TestFingerprintMatchesFNV holds Fingerprint, whose long runs fold a word
// with one multiply-add, to hash/fnv's FNV-1a over the length and every
// sample's 8 little-endian bytes, on dense and run traces with runs around
// the length where the multiply-add path starts.
func TestFingerprintMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var values []float64
	for _, n := range []int{1, 2, 63, 64, 65, 600, 5000, 3, 64, 1} {
		v := math.Round(rng.Float64()*1e4) / 8
		if rng.Intn(4) == 0 {
			v = rng.Float64() * 1e4
		}
		for i := 0; i < n; i++ {
			values = append(values, v)
		}
	}
	values = append(values, 0, math.Copysign(0, -1), math.Copysign(0, -1), 0)
	for i := 0; i < 100; i++ {
		values = append(values, math.Copysign(0, -1))
	}
	dense := MustNew(values)
	runs, err := dense.Quantize(1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := dense.Quantize(600)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trace{"dense": dense, "runs": runs, "quantized": wide} {
		h := fnv.New64a()
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], uint64(tr.Len()))
		h.Write(word[:])
		for _, v := range tr.Values() {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
		if got, want := tr.Fingerprint(), h.Sum64(); got != want {
			t.Errorf("%s: Fingerprint %x, FNV-1a %x", name, got, want)
		}
	}
}
