// Package loadgen is the repository's Siege equivalent: a closed-loop HTTP
// load generator with a configurable number of concurrent clients, used by
// the Step 1 profiler to find each architecture's maximum request rate
// ("we execute the benchmark with an increasing number of concurrent
// clients in order to find the maximum request rate that can be
// processed"). Each test runs for a fixed duration and the maximum
// performance is averaged over repeated runs, exactly like the paper's
// 5 × 30 s protocol (durations are scaled down in tests).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Result summarizes one load-generation run.
type Result struct {
	Concurrency int
	Duration    time.Duration
	Completed   uint64  // successful (2xx) responses
	Failed      uint64  // transport errors and non-2xx responses
	Rate        float64 // Completed / Duration, requests per second
}

// Run drives concurrency closed-loop clients against url for the given
// duration and reports the achieved rate.
func Run(ctx context.Context, url string, concurrency int, duration time.Duration) (Result, error) {
	if url == "" {
		return Result{}, errors.New("loadgen: empty url")
	}
	if concurrency <= 0 {
		return Result{}, fmt.Errorf("loadgen: invalid concurrency %d", concurrency)
	}
	if duration <= 0 {
		return Result{}, fmt.Errorf("loadgen: invalid duration %v", duration)
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: concurrency,
			MaxConnsPerHost:     0,
		},
		Timeout: duration + 5*time.Second,
	}
	defer client.CloseIdleConnections()

	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	var completed, failed uint64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-runCtx.Done():
					return
				default:
				}
				req, err := http.NewRequestWithContext(runCtx, http.MethodGet, url, nil)
				if err != nil {
					atomic.AddUint64(&failed, 1)
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					if runCtx.Err() != nil {
						return // deadline, not a server failure
					}
					atomic.AddUint64(&failed, 1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 200 && resp.StatusCode < 300 {
					atomic.AddUint64(&completed, 1)
				} else {
					atomic.AddUint64(&failed, 1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := Result{
		Concurrency: concurrency,
		Duration:    elapsed,
		Completed:   atomic.LoadUint64(&completed),
		Failed:      atomic.LoadUint64(&failed),
	}
	if elapsed > 0 {
		res.Rate = float64(res.Completed) / elapsed.Seconds()
	}
	return res, nil
}

// MaxRateConfig parameterizes the maximum-rate search.
type MaxRateConfig struct {
	// RunDuration is each probe's length (the paper uses 30 s; tests use
	// hundreds of milliseconds). Zero means 2 s.
	RunDuration time.Duration
	// Repeats is how many runs are averaged at the chosen concurrency
	// (the paper averages 5). Zero means 3.
	Repeats int
	// StartConcurrency seeds the doubling search. Zero means 1.
	StartConcurrency int
	// MaxConcurrency bounds the search. Zero means 256.
	MaxConcurrency int
	// PlateauTolerance stops the search when doubling concurrency improves
	// the rate by less than this fraction. Zero means 0.05.
	PlateauTolerance float64
}

func (c *MaxRateConfig) fill() {
	if c.RunDuration == 0 {
		c.RunDuration = 2 * time.Second
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.StartConcurrency == 0 {
		c.StartConcurrency = 1
	}
	if c.MaxConcurrency == 0 {
		c.MaxConcurrency = 256
	}
	if c.PlateauTolerance == 0 {
		c.PlateauTolerance = 0.05
	}
}

// MaxRate finds the maximum sustainable request rate of url: concurrency is
// doubled until the achieved rate plateaus, then the best concurrency is
// re-run Repeats times and the mean rate returned — the paper's Step 1
// measurement protocol.
func MaxRate(ctx context.Context, url string, cfg MaxRateConfig) (float64, error) {
	cfg.fill()
	if cfg.Repeats < 1 || cfg.StartConcurrency < 1 || cfg.MaxConcurrency < cfg.StartConcurrency {
		return 0, fmt.Errorf("loadgen: invalid search config %+v", cfg)
	}
	bestRate := 0.0
	bestConc := cfg.StartConcurrency
	for conc := cfg.StartConcurrency; conc <= cfg.MaxConcurrency; conc *= 2 {
		res, err := Run(ctx, url, conc, cfg.RunDuration)
		if err != nil {
			return 0, err
		}
		if res.Rate > bestRate*(1+cfg.PlateauTolerance) {
			bestRate = res.Rate
			bestConc = conc
			continue
		}
		break // plateau (or regression): stop doubling
	}
	// Refine: average Repeats runs at the best concurrency.
	var sum float64
	for i := 0; i < cfg.Repeats; i++ {
		res, err := Run(ctx, url, bestConc, cfg.RunDuration)
		if err != nil {
			return 0, err
		}
		sum += res.Rate
	}
	return sum / float64(cfg.Repeats), nil
}
