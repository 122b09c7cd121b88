package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the trace file parser. It must never
// panic, it must agree with readReference (the same samples bit for bit,
// or the same error text), ReadFile of the bytes written to a file must
// agree with Read and Quantize at every width tried, and any trace it
// accepts must survive a Write→Read round trip bit for bit (Write prints
// each sample in its shortest exact form).
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkReadMatchesReference(t, body)
		path := writeTempFile(t, body)
		for _, width := range []int{0, 1, 7, 600} {
			checkReadFileMatches(t, path, width)
		}
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
