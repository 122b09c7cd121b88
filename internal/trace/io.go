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
	var values []float64
	if err := parse(r, make([]byte, 64*1024), func(v float64) { values = append(values, v) }); err != nil {
		return nil, err
	}
	return adopt(values)
}

// ReadFile loads the trace file at path and, when quantize > 0, quantizes
// it to windows of quantize seconds: the same samples, bit for bit, as
// Read followed by Quantize, and the same errors, prefixed with the path.
// An error opening the file is os.Open's, unprefixed. A quantized load
// sums each window as it parses and keeps only the runs, so it never holds
// the samples. A raw load counts a regular file's lines before it parses
// it, so its samples go into one array of the right size, where Read
// would grow one by appending.
func ReadFile(path string, quantize int) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tr *Trace
	if quantize > 0 {
		tr, err = readQuantized(f, quantize)
	} else {
		tr, err = readFile(f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

func readFile(f *os.File) (*Trace, error) {
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
	if err := parse(f, buf, func(v float64) { values = append(values, v) }); err != nil {
		return nil, err
	}
	return adopt(values)
}

// readQuantized parses r into a run trace of its quantize-second window
// means, summing each window's samples in order as Quantize does. The
// errors come in Read's order: a parse error anywhere in the file first,
// then the first invalid sample by its own index, and only then an
// invalid mean.
func readQuantized(r io.Reader, quantize int) (*Trace, error) {
	// Room for a day of 5-minute windows; append grows it past that.
	b := newRunBuilder(256)
	var bad error // the first invalid sample's
	n, start, sum := 0, 0, 0.0
	err := parse(r, make([]byte, 64*1024), func(v float64) {
		if bad == nil {
			bad = checkSample(n, v)
		}
		sum += v
		n++
		if n-start == quantize {
			b.add(sum/float64(quantize), n)
			start, sum = n, 0
		}
	})
	switch {
	case err != nil:
		return nil, err
	case n == 0:
		return nil, ErrEmpty
	case bad != nil:
		return nil, bad
	case n > math.MaxInt32:
		return nil, errTooLong(n)
	}
	if n > start {
		b.add(sum/float64(n-start), n)
	}
	return b.trace()
}

// parse reads the samples of r and hands each to add, in order. Lines are
// scanned in buf, which grows up to 1 MiB.
func parse(r io.Reader, buf []byte, add func(float64)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, 1024*1024)
	var prev []byte // the last rate text parsed, copied: the scanner reuses its buffer
	var rate float64
	line, samples := 0, 0
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
				return fmt.Errorf("trace: line %d: bad index %q: %v", line, idxField, err)
			}
			if idx != samples {
				return fmt.Errorf("trace: line %d: non-contiguous index %d (want %d)", line, idx, samples)
			}
		}
		// ParseFloat is a pure function of its text, so equal text may
		// reuse the previous value bit for bit.
		if samples == 0 || !bytes.Equal(field, prev) {
			var err error
			if rate, err = strconv.ParseFloat(string(field), 64); err != nil {
				return fmt.Errorf("trace: line %d: bad rate %q: %v", line, field, err)
			}
			prev = append(prev[:0], field...)
		}
		add(rate)
		samples++
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("trace: line %d: longer than 1 MiB", line+1)
	} else if err != nil {
		return fmt.Errorf("trace: read: %w", err)
	}
	return nil
}

// Write serializes the trace in the bare one-rate-per-line form, prefixed
// with a comment header. Each sample prints as %g would print it.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	text := strconv.AppendInt([]byte("# trace: "), int64(t.Len()), 10)
	if _, err := bw.Write(append(text, " samples at 1 Hz\n"...)); err != nil {
		return err
	}
	c := t.cursorAt(0)
	prev := math.Float64bits(math.NaN()) // matches no valid sample
	for i := 0; i < t.n; {
		v, end := c.next()
		if b := math.Float64bits(v); b != prev {
			text = append(strconv.AppendFloat(text[:0], v, 'g', -1, 64), '\n')
			prev = b
		}
		for ; i < end; i++ {
			if _, err := bw.Write(text); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
