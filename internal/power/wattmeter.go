package power

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Wattmeter emulates an external power meter such as the WattsUp?Pro the
// paper used for the Chromebook and Raspberry Pi, or the Grid'5000 Kwapi
// feed used for the x86 servers. A meter samples a power source at a fixed
// period and adds bounded Gaussian measurement noise, mimicking the ±1.5%
// accuracy class of the physical instrument.
//
// The meter is driven by simulated time: callers invoke Observe with the
// current simulation timestamp and the true power, and the meter decides
// whether a sample falls due. This keeps profiling runs deterministic.
type Wattmeter struct {
	mu       sync.Mutex
	period   float64 // sampling period in seconds
	noiseRel float64 // relative (fractional) 1-sigma noise
	rng      *rand.Rand
	nextDue  float64
	started  bool
	samples  []MeterSample
}

// MeterSample is one reading produced by the emulated wattmeter.
type MeterSample struct {
	Time  float64 // seconds since meter start
	Power Watts   // noisy reading
	True  Watts   // noiseless value, retained for test assertions
}

// NewWattmeter constructs a meter sampling every periodSeconds with the
// given relative Gaussian noise (e.g. 0.015 for a 1.5% instrument). seed
// makes noise deterministic. periodSeconds must be positive; noiseRel must
// be in [0, 0.5].
func NewWattmeter(periodSeconds, noiseRel float64, seed int64) (*Wattmeter, error) {
	if periodSeconds <= 0 || math.IsNaN(periodSeconds) || math.IsInf(periodSeconds, 0) {
		return nil, fmt.Errorf("power: invalid sampling period %v", periodSeconds)
	}
	if noiseRel < 0 || noiseRel > 0.5 || math.IsNaN(noiseRel) {
		return nil, fmt.Errorf("power: invalid relative noise %v", noiseRel)
	}
	return &Wattmeter{
		period:   periodSeconds,
		noiseRel: noiseRel,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Observe presents the true power at simulated time t (seconds). If one or
// more sampling instants have elapsed since the previous observation, the
// meter records samples at those instants (sample-and-hold of the presented
// value). Returns the number of samples recorded.
func (wm *Wattmeter) Observe(t float64, truePower Watts) (int, error) {
	if !truePower.IsValid() {
		return 0, ErrNegativePower
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("power: invalid observation time %v", t)
	}
	wm.mu.Lock()
	defer wm.mu.Unlock()
	if !wm.started {
		wm.started = true
		wm.nextDue = t
	}
	if t < wm.nextDue-wm.period {
		return 0, ErrNonMonotonicTime
	}
	n := 0
	for wm.nextDue <= t {
		reading := wm.noisy(truePower)
		wm.samples = append(wm.samples, MeterSample{Time: wm.nextDue, Power: reading, True: truePower})
		wm.nextDue += wm.period
		n++
	}
	return n, nil
}

func (wm *Wattmeter) noisy(p Watts) Watts {
	if wm.noiseRel == 0 {
		return p
	}
	// Bound noise at 3 sigma so a reading can never go negative for
	// realistic noise levels.
	g := wm.rng.NormFloat64()
	if g > 3 {
		g = 3
	} else if g < -3 {
		g = -3
	}
	out := float64(p) * (1 + g*wm.noiseRel)
	if out < 0 {
		out = 0
	}
	return Watts(out)
}

// MeanPower returns the arithmetic mean of readings in the half-open time
// window [from, to). It returns an error if no samples fall in the window.
func (wm *Wattmeter) MeanPower(from, to float64) (Watts, error) {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	if to < from {
		return 0, fmt.Errorf("power: window end %v before start %v", to, from)
	}
	// Samples are appended in time order; binary-search the window start.
	i := sort.Search(len(wm.samples), func(k int) bool { return wm.samples[k].Time >= from })
	var sum float64
	var n int
	for ; i < len(wm.samples) && wm.samples[i].Time < to; i++ {
		sum += float64(wm.samples[i].Power)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("power: no samples in window [%v, %v)", from, to)
	}
	return Watts(sum / float64(n)), nil
}
