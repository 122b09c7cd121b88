package sim

import "time"

// Options that only tests set (a sink's batch size and retry budget, a
// fleet's clock) and the cache directory only tests read.

// withSinkBatch buffers up to n records per POST instead of flushing every
// cell immediately. Buffered records are only durable after Flush/Close,
// so larger batches widen the window a killed worker loses.
func withSinkBatch(n int) SinkOption {
	return func(s *HTTPSink) {
		if n > 0 {
			s.batchCap = n
		}
	}
}

// withSinkRetries sets the retry budget: up to retries re-POSTs after the
// first failure, sleeping backoff, 2*backoff, 4*backoff, ... between
// attempts.
func withSinkRetries(retries int, backoff time.Duration) SinkOption {
	return func(s *HTTPSink) {
		if retries >= 0 {
			s.retries = retries
		}
		if backoff > 0 {
			s.backoff = backoff
		}
	}
}

// withFleetClock substitutes the time source runs created through the
// fleet inherit — deterministic lease tests advance a fake clock.
func withFleetClock(now func() time.Time) FleetOption {
	return func(f *Fleet) {
		if now != nil {
			f.now = now
		}
	}
}

// Dir returns the cache's directory path.
func (c *DirCache) Dir() string { return c.dir }
