package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// This file provides the trace file format the simulator consumes: one
// sample per line, either a bare rate ("123.4") or a "second,rate" pair
// ("7,123.4"). Lines starting with '#' and blank lines are ignored. The
// two-column form must be densely indexed from 0 upward; it exists so real
// World Cup–derived per-second request counts can be dropped in directly.
// Neither direction allocates per line: Read parses each run of equal rate
// text once, and Write formats each run of equal samples once, so a
// quantized trace costs one conversion per plateau, not per second.

// Read parses a trace from r. A line, with its line ending, must be
// shorter than 1 MiB.
func Read(r io.Reader) (*Trace, error) {
	values, err := parse(r, make([]byte, 64*1024), nil)
	if err != nil {
		return nil, err
	}
	return adopt(values)
}

// ReadFile loads the trace file at path and, when quantize > 0, quantizes
// it to windows of quantize seconds: the same samples, bit for bit, as
// Read followed by Quantize, and the same errors, prefixed with the path.
// An error opening the file is os.Open's, unprefixed. A regular file's
// lines are counted before it is parsed, so its samples go into one array
// of the right size, which the quantization then overwrites; Read and
// Quantize would grow one array by appending and copy it into another.
func ReadFile(path string, quantize int) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := readFile(f, quantize)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

func readFile(f *os.File, quantize int) (*Trace, error) {
	buf := make([]byte, 64*1024)
	var values []float64
	// A pipe cannot be read twice; it is parsed as it comes.
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		lines := 0
		for {
			n, err := f.Read(buf)
			lines += bytes.Count(buf[:n], []byte{'\n'})
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("trace: read: %w", err)
			}
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("trace: read: %w", err)
		}
		// A last line without a newline is one more.
		values = make([]float64, 0, lines+1)
	}
	values, err := parse(f, buf, values)
	if err != nil {
		return nil, err
	}
	if quantize > 0 {
		// Read's check comes first, so a bad sample is named by its own
		// index and not by its window's mean.
		if _, err := validMax(values); err != nil {
			return nil, err
		}
		quantizeInto(values, values, quantize)
	}
	return adopt(values)
}

// parse reads the samples of r into values, which must be empty: only its
// capacity is used. Lines are scanned in buf, which grows up to 1 MiB.
func parse(r io.Reader, buf []byte, values []float64) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, 1024*1024)
	var prev []byte // the last rate text parsed, copied: the scanner reuses its buffer
	var rate float64
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		field := text
		if comma := bytes.IndexByte(text, ','); comma >= 0 {
			idxField := bytes.TrimSpace(text[:comma])
			field = bytes.TrimSpace(text[comma+1:])
			idx, err := strconv.Atoi(string(idxField))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad index %q: %v", line, idxField, err)
			}
			if idx != len(values) {
				return nil, fmt.Errorf("trace: line %d: non-contiguous index %d (want %d)", line, idx, len(values))
			}
		}
		// ParseFloat is a pure function of its text, so equal text may
		// reuse the previous value bit for bit.
		if len(values) == 0 || !bytes.Equal(field, prev) {
			var err error
			if rate, err = strconv.ParseFloat(string(field), 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad rate %q: %v", line, field, err)
			}
			prev = append(prev[:0], field...)
		}
		values = append(values, rate)
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("trace: line %d: longer than 1 MiB", line+1)
	} else if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return values, nil
}

// Write serializes the trace in the bare one-rate-per-line form, prefixed
// with a comment header. Each sample prints as %g would print it.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	text := strconv.AppendInt([]byte("# trace: "), int64(t.Len()), 10)
	if _, err := bw.Write(append(text, " samples at 1 Hz\n"...)); err != nil {
		return err
	}
	for i, v := range t.values {
		if i == 0 || math.Float64bits(v) != math.Float64bits(t.values[i-1]) {
			text = append(strconv.AppendFloat(text[:0], v, 'g', -1, 64), '\n')
		}
		if _, err := bw.Write(text); err != nil {
			return err
		}
	}
	return bw.Flush()
}
