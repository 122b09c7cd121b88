package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the trace file parser. It must never
// panic, it must agree with readReference (the same samples bit for bit,
// or the same error text), ReadFile of the bytes written to a file must
// agree with readReference and Quantize at every width tried, and any trace it
// accepts must survive a Write→Read round trip bit for bit (Write prints
// each sample in its shortest exact form). repeatInputs seed it beside
// the committed corpus.
func FuzzRead(f *testing.F) {
	for _, in := range repeatInputs() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkReadMatchesReference(t, body)
		tr, err := Read(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read rejects its own Write output: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip length %d, want %d", back.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if math.Float64bits(back.At(i)) != math.Float64bits(tr.At(i)) {
				t.Fatalf("sample %d: round trip %v, want %v", i, back.At(i), tr.At(i))
			}
		}
	})
}

// FuzzFromAccessLog feeds arbitrary bytes to the access-log converter. It
// must never panic, and an accepted trace spans exactly the first to the
// last parsed second with one request counted per parsed line.
func FuzzFromAccessLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		tr, skipped, err := FromAccessLog(bytes.NewReader(body))
		if err != nil {
			return
		}
		// The reference reads lines the way bufio.ScanLines does and
		// timestamps them with the converter's own parser: this checks
		// the per-second aggregation, not the timestamp grammar.
		lines := strings.Split(string(body), "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		var parsed, unparsed int
		var min, max int64
		for _, line := range lines {
			ts, ok := parseCLFTimestamp(strings.TrimSuffix(line, "\r"))
			if !ok {
				if strings.TrimSpace(line) != "" {
					unparsed++
				}
				continue
			}
			sec := ts.Unix()
			if parsed == 0 || sec < min {
				min = sec
			}
			if parsed == 0 || sec > max {
				max = sec
			}
			parsed++
		}
		if skipped != unparsed {
			t.Fatalf("skipped = %d, want %d", skipped, unparsed)
		}
		if want := int(max - min + 1); tr.Len() != want {
			t.Fatalf("Len = %d, want %d (last − first parsed second + 1)", tr.Len(), want)
		}
		sum := 0.0
		for i := 0; i < tr.Len(); i++ {
			sum += tr.At(i)
		}
		if sum != float64(parsed) {
			t.Fatalf("samples sum to %v, want %d parsed lines", sum, parsed)
		}
		if tr.At(0) < 1 || tr.At(tr.Len()-1) < 1 {
			t.Fatalf("first or last second has no request: %v, %v", tr.At(0), tr.At(tr.Len()-1))
		}
	})
}

// plateauValues are the loads FuzzRunTrace builds plateaus from: both
// zeros, values whose sums and products round, and the extremes.
var plateauValues = [...]float64{
	0, math.Copysign(0, -1), 1, 2, 0.1, 0.2, 0.3, 1.0 / 3, 7, 1 + 0x1p-52,
	1e300, math.MaxFloat64, 5e-324, 123.456, 1e-300, 42,
}

// plateauTrace builds a dense trace from plateaus, two bytes each: a value
// from plateauValues and a length of 1 to 64 times unit seconds, up to
// two days in all. It returns nil when plateaus makes no sample.
func plateauTrace(plateaus []byte, unit int) *Trace {
	var vals []float64
	for i := 0; i+1 < len(plateaus) && len(vals) < 2*SecondsPerDay; i += 2 {
		v := plateauValues[int(plateaus[i])%len(plateauValues)]
		for n := (1 + int(plateaus[i+1])%64) * unit; n > 0 && len(vals) < 2*SecondsPerDay; n-- {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	return MustNew(vals)
}

// FuzzRunTrace holds a run trace to its dense twin, the same samples
// stored one by one. The run traces under test are the twin re-stored as
// runs, its Quantize (beside a dense reference quantization), and their
// Scale by f, by 0 and by a factor that rounds neighbours together, and
// their Slice. Each must store no two neighbouring runs of the same bits,
// and agree with its twin on every method: Fingerprint,
// At, Values, Max, Mean, DailyPeaks, MaxInWindow, every SlidingMaxRuns
// emission, Write's bytes, and the runs Runs fills into a block of any size
// at any bounds; and errors must agree by text. Plateaus are 1 to 8
// seconds long per length unit, or, for one unit value in eight, 1500
// seconds, so that some traces span days.
func FuzzRunTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, plateaus []byte, unit uint8, f float64, width uint16, from, to int32, block uint16) {
		u := 1 + int(unit)%8
		if unit%8 == 7 {
			u = 1500
		}
		dense := plateauTrace(plateaus, u)
		if dense == nil {
			return
		}
		w := 1 + int(width)%(dense.Len()+7)
		checkTwins(t, "runs", asRuns(t, dense), dense, int(from), int(to), int(block))
		q, qErr := dense.Quantize(w)
		qRef, refErr := quantizeReference(dense, w)
		if !sameError(qErr, refErr) {
			t.Fatalf("Quantize(%d) error = %v, dense reference %v", w, qErr, refErr)
		}
		pairs := [][2]*Trace{{asRuns(t, dense), dense}}
		if qErr == nil {
			checkTwins(t, "quantized", q, qRef, int(from), int(to), int(block))
			pairs = append(pairs, [2]*Trace{q, qRef})
		}
		f = math.Abs(f)
		for _, p := range pairs {
			// 0 makes every sample zero; 0.5 rounds 5e-324 to the zero
			// beside it, and 1e-300 every small load; 1.1 overflows
			// the largest loads.
			for _, factor := range []float64{f, 0, 0.5, 1e-300, 1.1} {
				if math.IsInf(factor, 0) || math.IsNaN(factor) {
					continue
				}
				rs, rErr := p[0].Scale(factor)
				ds, dErr := p[1].Scale(factor)
				if !sameError(rErr, dErr) {
					t.Fatalf("Scale(%v) error = %v, dense %v", factor, rErr, dErr)
				}
				if rErr == nil {
					checkTwins(t, fmt.Sprintf("scaled by %v", factor), rs, ds, int(from), int(to), int(block))
				}
			}
			lo, hi := int(from), int(to)
			rs, rErr := p[0].Slice(lo, hi)
			ds, dErr := p[1].Slice(lo, hi)
			if !sameError(rErr, dErr) {
				t.Fatalf("Slice(%d, %d) error = %v, dense %v", lo, hi, rErr, dErr)
			}
			if rErr == nil {
				checkTwins(t, "slice", rs, ds, 0, hi-lo, int(block))
			}
		}
	})
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkTwins fails t unless tr answers every read as its twin dense does.
// from, to and block pick the bounds and block size Runs is read with.
func checkTwins(t *testing.T, name string, tr, dense *Trace, from, to, block int) {
	t.Helper()
	n := dense.Len()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s trace of %d samples: %s", name, n, fmt.Sprintf(format, args...))
	}
	if tr.Len() != n {
		fail("Len = %d", tr.Len())
	}
	for k := 1; k < len(tr.runVals); k++ {
		if math.Float64bits(tr.runVals[k]) == math.Float64bits(tr.runVals[k-1]) {
			fail("runs %d and %d have the same bits; they should be one", k-1, k)
		}
	}
	if tr.Fingerprint() != dense.Fingerprint() {
		fail("Fingerprint %x, dense %x", tr.Fingerprint(), dense.Fingerprint())
	}
	bits := math.Float64bits
	if bits(tr.Max()) != bits(dense.Max()) || bits(tr.Mean()) != bits(dense.Mean()) {
		fail("Max %v Mean %v, dense %v %v", tr.Max(), tr.Mean(), dense.Max(), dense.Mean())
	}
	vals := dense.Values()
	for i, v := range tr.Values() {
		if bits(v) != bits(vals[i]) {
			fail("Values[%d] = %v, dense %v", i, v, vals[i])
		}
	}
	for _, i := range []int{-1, 0, from, to, n / 2, n - 1, n} {
		if bits(tr.At(i)) != bits(dense.At(i)) {
			fail("At(%d) = %v, dense %v", i, tr.At(i), dense.At(i))
		}
	}
	if got, want := tr.DailyPeaks(), dense.DailyPeaks(); fmt.Sprint(got) != fmt.Sprint(want) {
		fail("DailyPeaks %v, dense %v", got, want)
	}
	for _, win := range [][2]int{{from, to - from}, {from, 1}, {-5, 10}, {n - 1, 100}, {0, n}} {
		if got, want := tr.MaxInWindow(win[0], win[1]), dense.MaxInWindow(win[0], win[1]); bits(got) != bits(want) {
			fail("MaxInWindow(%d, %d) = %v, dense %v", win[0], win[1], got, want)
		}
	}
	for _, w := range []int{1, 2, 3, max(to-from, 1), n, n + 5, SecondsPerDay} {
		got, want := slidingEmissions(t, tr, w), slidingEmissions(t, dense, w)
		if len(got) != len(want) {
			fail("SlidingMaxRuns(%d) emits %d runs, dense %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				fail("SlidingMaxRuns(%d) run %d = %v, dense %v", w, i, got[i], want[i])
			}
		}
	}
	var a, b bytes.Buffer
	if err := Write(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, dense); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		fail("Write output differs")
	}
	size := 1 + block%300
	for _, bounds := range [][2]int{{from, to}, {0, n}, {from, n}, {-3, to}} {
		lo, hi := bounds[0], bounds[1]
		gotVals, gotEnds := runsOf(tr, lo, hi, size)
		wantVals, wantEnds := runsOf(dense, lo, hi, size)
		if fmt.Sprint(gotEnds) != fmt.Sprint(wantEnds) {
			fail("Runs(%d, %d) in blocks of %d end at %v, dense %v", lo, hi, size, gotEnds, wantEnds)
		}
		for i := range gotVals {
			if bits(gotVals[i]) != bits(wantVals[i]) {
				fail("Runs(%d, %d) run %d = %v, dense %v", lo, hi, i, gotVals[i], wantVals[i])
			}
		}
		// One call fills one block exactly as a call from its start would.
		val, end := make([]float64, size), make([]int, size)
		wv, we := make([]float64, size), make([]int, size)
		if k, kd := tr.Runs(lo, hi, val, end), dense.Runs(lo, hi, wv, we); k != kd || fmt.Sprint(end[:k]) != fmt.Sprint(we[:kd]) {
			fail("one Runs(%d, %d) block of %d = %v, dense %v", lo, hi, size, end[:k], we[:kd])
		}
	}
}

// emission is one SlidingMaxRuns call, its maximum by bits.
type emission struct {
	from, to int
	bits     uint64
}

func slidingEmissions(t *testing.T, tr *Trace, w int) []emission {
	var out []emission
	if err := tr.SlidingMaxRuns(w, func(from, to int, max float64) {
		out = append(out, emission{from, to, math.Float64bits(max)})
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
