package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file provides the trace file format the simulator consumes: one
// sample per line, either a bare rate ("123.4") or a "second,rate" pair
// ("7,123.4"). Lines starting with '#' and blank lines are ignored. The
// two-column form must be densely indexed from 0 upward; it exists so real
// World Cup–derived per-second request counts can be dropped in directly.

// Read parses a trace from r.
func Read(r io.Reader) (*Trace, error) {
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
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return adopt(values)
}

// Write serializes the trace in the bare one-rate-per-line form, prefixed
// with a comment header.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace: %d samples at 1 Hz\n", t.Len()); err != nil {
		return err
	}
	for _, v := range t.values {
		if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
