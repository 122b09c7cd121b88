package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// FromAccessLog builds a per-second request-rate trace from a web server
// access log in Common/Combined Log Format — the format the original 1998
// World Cup logs decode to. Only the timestamp field is used:
//
//	host - - [day/mon/year:hh:mm:ss zone] "GET /..." 200 1234
//
// Lines without a parsable [timestamp] are skipped (counted in the
// returned skipped value) so partially corrupt logs still convert. The
// trace spans from the first to the last observed second, with zeros for
// idle seconds; out-of-order timestamps are tolerated as long as they fall
// within the observed span.
func FromAccessLog(r io.Reader) (tr *Trace, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var (
		counts   = make(map[int64]int)
		min, max int64
		first    = true
	)
	for sc.Scan() {
		line := sc.Text()
		ts, ok := parseCLFTimestamp(line)
		if !ok {
			if strings.TrimSpace(line) != "" {
				skipped++
			}
			continue
		}
		sec := ts.Unix()
		counts[sec]++
		if first {
			min, max = sec, sec
			first = false
			continue
		}
		if sec < min {
			min = sec
		}
		if sec > max {
			max = sec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("trace: access log read: %w", err)
	}
	if first {
		return nil, skipped, fmt.Errorf("trace: access log contains no parsable requests")
	}
	span := max - min + 1
	const maxSpan = 400 * SecondsPerDay
	if span > maxSpan {
		return nil, skipped, fmt.Errorf("trace: access log spans %d seconds (more than %d days)", span, maxSpan/SecondsPerDay)
	}
	values := make([]float64, span)
	for sec, n := range counts {
		values[sec-min] = float64(n)
	}
	tr, err = adopt(values)
	return tr, skipped, err
}

// parseCLFTimestamp extracts and parses the bracketed CLF timestamp.
func parseCLFTimestamp(line string) (time.Time, bool) {
	open := strings.IndexByte(line, '[')
	if open < 0 {
		return time.Time{}, false
	}
	close := strings.IndexByte(line[open:], ']')
	if close < 0 {
		return time.Time{}, false
	}
	stamp := line[open+1 : open+close]
	t, err := time.Parse("02/Jan/2006:15:04:05 -0700", stamp)
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}
