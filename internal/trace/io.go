package trace

import (
	"bufio"
	"bytes"
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
	if err := parse(r, make([]byte, 64*1024), func(v float64, k int) { values = appendN(values, v, k) }); err != nil {
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
	if err := parse(f, buf, func(v float64, k int) { values = appendN(values, v, k) }); err != nil {
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
	b := newRunBuilder(24 * 3600 / 300)
	var bad error // the first invalid sample's
	n, start, sum := 0, 0, 0.0
	err := parse(r, make([]byte, 64*1024), func(v float64, k int) {
		if bad == nil {
			bad = checkSample(n, v)
		}
		for ; k > 0; k-- {
			sum += v
			n++
			if n-start == quantize {
				b.add(sum/float64(quantize), n)
				start, sum = n, 0
			}
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

// maxLine is the longest line parse accepts, its newline included.
const maxLine = 1 << 20

// appendN appends k copies of v to values.
func appendN(values []float64, v float64, k int) []float64 {
	for ; k > 0; k-- {
		values = append(values, v)
	}
	return values
}

// parse reads the samples of r and hands them to add in order, k equal
// samples v at a time. Lines are scanned in buf, which grows up to
// maxLine; the rules, errors and line numbers are those of a bufio.Scanner
// over the same buffer and limit. Once a bare-rate line repeats the
// previous sample's rate text, the lines after it whose raw bytes, newline
// included, equal its own are the same sample again: they are counted
// without being trimmed or parsed, and compared a block of lines at a
// time, so a quantized file costs a few compares and one conversion per
// plateau. A line that differs from the one before is trimmed and parsed
// as the scanner's was, with no compare or copy of the whole line.
func parse(r io.Reader, buf []byte, add func(v float64, k int)) error {
	lines := make([]byte, 128) // room for any two lines Write prints
	p := lineParser{add: add, prev: lines[:0:64], repeat: lines[64:64]}
	start, end := 0, 0 // the unscanned bytes are buf[start:end]
	var rerr error     // the reader's error, io.EOF at the end
	for {
		for {
			k := 0
			for n := len(p.repeat); n > 0 && end-start >= n && bytes.Equal(buf[start:start+n], p.repeat); {
				start += n
				k++
				// buf[start-n:start] is a repeat, so bytes equal to those n
				// before them are whole repeats too: compare about 512 at
				// a time.
				for m := n * max(1, 512/n); end-start >= m && bytes.Equal(buf[start:start+m], buf[start-n:start-n+m]); start += m {
					k += m / n
				}
			}
			if k > 0 {
				p.line += k
				p.samples += k
				add(p.rate, k)
			}
			nl := bytes.IndexByte(buf[start:end], '\n')
			if nl < 0 {
				break
			}
			if err := p.sample(buf[start : start+nl+1]); err != nil {
				return err
			}
			start += nl + 1
		}
		if rerr != nil {
			// A last line without a newline counts, even before a read
			// error.
			if start < end {
				if err := p.sample(buf[start:end]); err != nil {
					return err
				}
			}
			if rerr == io.EOF {
				return nil
			}
			return fmt.Errorf("trace: read: %w", rerr)
		}
		end = copy(buf, buf[start:end])
		start = 0
		if end == len(buf) {
			if len(buf) >= maxLine {
				return fmt.Errorf("trace: line %d: longer than 1 MiB", p.line+1)
			}
			grown := make([]byte, min(2*len(buf), maxLine))
			copy(grown, buf[:end])
			buf = grown
		}
		for empty := 0; ; empty++ {
			n, err := r.Read(buf[end:])
			if n < 0 || n > len(buf)-end {
				rerr = bufio.ErrBadReadCount
				break
			}
			end += n
			if err != nil {
				rerr = err
				break
			}
			if n > 0 {
				break
			}
			if empty == 100 {
				rerr = io.ErrNoProgress
				break
			}
		}
	}
}

// lineParser is parse's state between lines.
type lineParser struct {
	add           func(v float64, k int)
	prev          []byte // the last rate text parsed, copied: buf is reused
	repeat        []byte // the last sample line, copied, if it repeated a bare rate; else empty
	rate          float64
	line, samples int
}

// sample handles one line, raw ending in its newline unless it is the
// last line of the input.
func (p *lineParser) sample(raw []byte) error {
	p.line++
	text := bytes.TrimSpace(raw)
	if len(text) == 0 || text[0] == '#' {
		return nil
	}
	field := text
	comma := bytes.IndexByte(text, ',')
	if comma >= 0 {
		idxField := bytes.TrimSpace(text[:comma])
		field = bytes.TrimSpace(text[comma+1:])
		idx, err := strconv.Atoi(string(idxField))
		if err != nil {
			return fmt.Errorf("trace: line %d: bad index %q: %v", p.line, idxField, err)
		}
		if idx != p.samples {
			return fmt.Errorf("trace: line %d: non-contiguous index %d (want %d)", p.line, idx, p.samples)
		}
	}
	// ParseFloat is a pure function of its text, so equal text may
	// reuse the previous value bit for bit.
	p.repeat = p.repeat[:0]
	if p.samples == 0 || !bytes.Equal(field, p.prev) {
		var err error
		if p.rate, err = strconv.ParseFloat(string(field), 64); err != nil {
			return fmt.Errorf("trace: line %d: bad rate %q: %v", p.line, field, err)
		}
		p.prev = append(p.prev[:0], field...)
	} else if comma < 0 {
		p.repeat = append(p.repeat, raw...)
	}
	p.add(p.rate, 1)
	p.samples++
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
