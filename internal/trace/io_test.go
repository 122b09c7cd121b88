package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readReference is Read as it was before it parsed each distinct line once:
// one string and one ParseFloat per line, through a bufio.Scanner, with a
// line past the 1 MiB limit reported by its number as Read reports it
// since. It is the oracle Read and ReadFile must match value for value and
// error for error.
func readReference(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var values []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var rate float64
		if comma := strings.IndexByte(text, ','); comma >= 0 {
			idxStr := strings.TrimSpace(text[:comma])
			rateStr := strings.TrimSpace(text[comma+1:])
			idx, err := strconv.Atoi(idxStr)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad index %q: %v", line, idxStr, err)
			}
			if idx != len(values) {
				return nil, fmt.Errorf("trace: line %d: non-contiguous index %d (want %d)", line, idx, len(values))
			}
			rate, err = strconv.ParseFloat(rateStr, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad rate %q: %v", line, rateStr, err)
			}
		} else {
			var err error
			rate, err = strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad rate %q: %v", line, text, err)
			}
		}
		values = append(values, rate)
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("trace: line %d: longer than 1 MiB", line+1)
	} else if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return adopt(values)
}

// writeReference is Write as it was before it formatted each run of equal
// samples once: one fmt.Fprintf("%g\n") per sample.
func writeReference(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace: %d samples at 1 Hz\n", t.Len()); err != nil {
		return err
	}
	for _, v := range t.Values() {
		if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// checkReadMatchesReference fails t unless Read and readReference agree on
// body, and ReadFile of body in a file agrees with readReference and
// Quantize, raw and at several widths: the same error text, or the same
// samples bit for bit.
func checkReadMatchesReference(t *testing.T, body []byte) {
	t.Helper()
	path := writeTempFile(t, body)
	for _, width := range []int{0, 1, 7, 600} {
		checkReadFileMatches(t, path, width)
	}
	got, gotErr := Read(bytes.NewReader(body))
	want, wantErr := readReference(bytes.NewReader(body))
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("Read(%.80q) error = %v, reference %v", body, gotErr, wantErr)
		}
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("Read(%.80q) has %d samples, reference %d", body, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if math.Float64bits(got.At(i)) != math.Float64bits(want.At(i)) {
			t.Fatalf("Read(%.80q) sample %d = %v, reference %v", body, i, got.At(i), want.At(i))
		}
	}
}

// fuzzReadCorpus returns the committed FuzzRead corpus entries.
func fuzzReadCorpus(t *testing.T) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRead", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header, value, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, okPrefix := strings.CutPrefix(value, "[]byte(")
		quoted, okSuffix := strings.CutSuffix(quoted, ")")
		if !ok || header != "go test fuzz v1" || !okPrefix || !okSuffix {
			t.Fatalf("%s: not a one-[]byte corpus entry", path)
		}
		body, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		bodies = append(bodies, []byte(body))
	}
	if len(bodies) == 0 {
		t.Fatal("no FuzzRead corpus entries found")
	}
	return bodies
}

func TestReadMatchesReference(t *testing.T) {
	inputs := []string{
		// Long runs of equal text, and a run broken by one other line.
		strings.Repeat("5\n", 1000) + strings.Repeat("6.25\n", 1000) + strings.Repeat("5\n", 3),
		// Two runs of 64 KiB each: the second starts just as the scanner
		// refills its buffer, so a view of the previous text into that
		// buffer, instead of a copy, would read "2" and reuse 1.
		strings.Repeat("1\n", 1<<15) + strings.Repeat("2\n", 1<<15),
		strings.Repeat("7\n", 10) + "# note\n\n" + strings.Repeat("7\n", 10),
		// Equal values written differently, and 0 next to -0.
		"1\n1.0\n1e0\n1\n1.0\n",
		"0\n-0\n-0\n0\n0.0\n-0.0\n",
		// Text longer than a small stack buffer, repeated.
		strings.Repeat("1.000000000000000000000000000000000000000001\n", 3),
		// The two-column form: good, padded, mixed with bare lines, and
		// bad or non-contiguous indices.
		"0,1\n1,1\n2,2\n3,2\n",
		" 0 , 1 \n 1 ,1\n2, 1\n",
		"1\n1,1\n2\n",
		"0,1\nx,1\n",
		",1\n",
		"0,1\n2,1\n",
		"0,1\n1,1\n1,1\n",
		"0,1\n0,1\n",
		"0,\n",
		"0,1\n1,\n",
		"0,1,2\n",
		"0,1\n1,1x\n",
		// CRLF endings, comment lines and blank lines.
		"1\r\n1\r\n# c\r\n\r\n2\r\n2\r\n",
		"# header\n\n   \n\t\n1\n#1\n 1 \n",
		" 1 \n\u00851\n",
		// Forms ParseFloat accepts, and one it does not.
		"0x1p-2\n0x1p-2\n0X1P-2\n0x1_0p0\n",
		"1_0\n",
		"1e5\n1E5\n100000\n+1\n+1\n",
		// Values that parse but adopt rejects, and one that does not parse.
		"Inf\n", "+Inf\n", "inf\n", "NaN\n", "nan\n", "-1\n", "1\n-1\n",
		"1e400\n", "1\n1e400\n",
		// Empty input and input that is only comments.
		"", "\n\n", "# only\n# comments\n",
		// No trailing newline.
		"1\n2",
	}
	inputs = append(inputs, repeatInputs()...)
	for _, in := range inputs {
		checkReadMatchesReference(t, []byte(in))
	}
	corpus := fuzzReadCorpus(t)
	for _, body := range corpus {
		checkReadMatchesReference(t, body)
	}
	t.Logf("%d constructed inputs and %d corpus entries match the reference", len(inputs), len(corpus))
}

// repeatInputs are inputs for the repeated-line path of Read and ReadFile,
// which counts a line whose raw bytes repeat those of a bare-rate line
// that repeated the rate before it, without parsing it, comparing many
// repeats at once.
func repeatInputs() []string {
	pad := func(n int) string { return strings.Repeat(" ", n) }
	return []string{
		// Repeats across the 64 KiB buffer refill: a line split by it, and
		// lines that end exactly at it.
		strings.Repeat("1.25\n", 20000) + "2\n1.25\n",
		strings.Repeat("1.5\n", 1<<15) + "1.5",
		"# header\n" + strings.Repeat("123.456789\n", 7000) + strings.Repeat("123.45678\n", 7000),
		// CRLF and LF endings of one value.
		"5\r\n5\r\n5\n5\r\n6\r\n6\r\n",
		// Whitespace variants of a repeated value.
		"5\n 5\n5 \n\t5\t\n5\n5\n5\n 5\n 5\n",
		// Comments and blank lines between repeats.
		"5\n5\n# c\n5\n\n5\n   \n5\n6\n#\n6\n6\n",
		// i,rate lines between bare repeats, of the same and of another
		// value, and a repeated i,rate line.
		"0,5\n1,5\n2,5\n5\n5\n5,5\n6,6\n6\n6\n",
		"5\n1,6\n5\n5\n",
		"5\n1,5\n1,5\n",
		// No final newline.
		"5\n5\n5", "5\n5\n6", "5\n5\n5 ", "5\n5\n5\r",
		// Repeats longer than Write prints, and too long to compare
		// several at once.
		strings.Repeat(pad(70)+"5\n", 20) + "6\n",
		strings.Repeat(pad(300)+"5\n", 20) + strings.Repeat(pad(300)+"5\r\n", 2),
		// Repeats then a value that breaks them mid-block.
		strings.Repeat("7\n", 1000) + "7\n7x\n",
		strings.Repeat("7\n", 1000) + "-7\n",
		// A line of exactly 1 MiB with its newline, repeated, and one just
		// past it; a last line without a newline at the limit and past it.
		"1\n" + strings.Repeat(pad(maxLine-3)+"5\n", 2) + "2\n",
		"1\n" + pad(maxLine-2) + "5\n2\n",
		"1\n" + pad(maxLine-2) + "5",
		"1\n" + pad(maxLine-1) + "5",
	}
}

// TestReadLongLineNamesLine: a line over the 1 MiB limit, data or comment,
// fails with its line number and the limit instead of the scanner's bare
// "token too long".
func TestReadLongLineNamesLine(t *testing.T) {
	long := strings.Repeat("9", 1<<20)
	for _, tc := range []struct {
		name, in, want string
	}{
		{"data", "1\n2\n" + long + "\n3\n", "trace: line 3: longer than 1 MiB"},
		{"comment", "1\n#" + long + "\n2\n", "trace: line 2: longer than 1 MiB"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Read error = %v, want %q", err, tc.want)
			}
		})
	}
}

// ioTestTraces returns one generated day, raw and quantized to 600 s, plus
// a trace of values whose %g forms are easy to get wrong.
func ioTestTraces(t testing.TB) map[string]*Trace {
	t.Helper()
	cfg := DefaultWorldCupConfig()
	cfg.Days = 1
	cfg.Seed = 5
	raw, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quantized, err := raw.Quantize(600)
	if err != nil {
		t.Fatal(err)
	}
	edges := MustNew([]float64{
		math.Copysign(0, -1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, math.MaxFloat64,
		1e21, 1e20, 1e-7, 1e-5, 123456789, 0.1, 0.1, 2.5, 1e21,
	})
	return map[string]*Trace{"raw": raw, "quantized": quantized, "edges": edges}
}

func TestWriteMatchesReference(t *testing.T) {
	for name, tr := range ioTestTraces(t) {
		t.Run(name, func(t *testing.T) {
			var got, want bytes.Buffer
			if err := Write(&got, tr); err != nil {
				t.Fatal(err)
			}
			if err := writeReference(&want, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
				for i := range wantLines {
					if i >= len(gotLines) || gotLines[i] != wantLines[i] {
						t.Fatalf("line %d: Write %q, reference %q", i+1, gotLines[min(i, len(gotLines)-1)], wantLines[i])
					}
				}
				t.Fatalf("Write printed %d bytes, reference %d", got.Len(), want.Len())
			}
			checkReadMatchesReference(t, got.Bytes())
		})
	}
}

// TestReadWriteAllocs bounds the allocations of a one-day (86,400-line)
// file: neither direction may allocate per line.
func TestReadWriteAllocs(t *testing.T) {
	for name, tr := range ioTestTraces(t) {
		if name == "edges" {
			continue
		}
		var file bytes.Buffer
		if err := Write(&file, tr); err != nil {
			t.Fatal(err)
		}
		reads := testing.AllocsPerRun(3, func() {
			if _, err := Read(bytes.NewReader(file.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		writes := testing.AllocsPerRun(3, func() {
			if err := Write(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		})
		if reads >= 64 || writes > 8 {
			t.Errorf("%s day: Read makes %v allocations (want < 64), Write %v (want <= 8)", name, reads, writes)
		}
	}
}
