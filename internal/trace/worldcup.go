package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// WorldCupConfig parameterizes the synthetic generator shaped like the 1998
// World Cup web access logs (days 6–92 of which the paper's evaluation
// replays). The real logs are not distributable with this repository, so
// the generator reproduces their load structure:
//
//   - a strong diurnal cycle (low at night, broad daytime plateau with an
//     evening peak, European time);
//   - a weekly modulation (weekend days slightly quieter in the early
//     weeks);
//   - a slow tournament ramp: traffic grows by more than an order of
//     magnitude from the pre-tournament weeks to the knockout phase, peaks
//     around the finals (~day 73–80 of the trace range), then decays;
//   - match-day spikes: sharp surges of a couple of hours on match days;
//   - flash crowds: short (tens of seconds to minutes) bursts of 1.5–4×
//     the ambient load, mimicking goal events and page-reload storms —
//     the second-granularity burstiness of real web logs that makes
//     window-maximum provisioning expensive and drives the paper's
//     BML-versus-lower-bound overhead spread;
//   - multiplicative per-second noise.
//
// PeakRate scales the whole trace so the global maximum equals it, up to
// one rounding (see GenerateWorldCup). The paper's UpperBound Global
// contains 4 Big (Paravance) machines, so the default peak is chosen
// inside (3, 4] × 1331 req/s.
type WorldCupConfig struct {
	Days     int     // number of days to generate (default 92)
	PeakRate float64 // global maximum load in requests/s (default 5000)
	Seed     int64   // deterministic noise seed
	Noise    float64 // relative 1-sigma multiplicative noise (default 0.13)
	// BurstLevel scales the flash-crowd intensity: 1 is the default
	// burstiness, 0 disables flash crowds entirely (set DisableBursts for
	// an explicit zero since the zero value means "default").
	BurstLevel    float64
	DisableBursts bool
}

// DefaultWorldCupConfig returns the configuration used by the Figure 5
// reproduction: 92 days peaking at 5000 req/s, matching a 4-Big-machine
// over-provisioned baseline.
func DefaultWorldCupConfig() WorldCupConfig {
	return WorldCupConfig{Days: 92, PeakRate: 5000, Seed: 1998, Noise: 0.13, BurstLevel: 1}
}

// GenerateWorldCup synthesizes the trace. The result always has
// cfg.Days × 86400 one-second samples. Its global maximum is cfg.PeakRate
// up to the one rounding of the final v*scale multiply: within
// cfg.PeakRate·2⁻⁵², not always exactly equal. A peak so large that the
// scale overflows is rejected.
func GenerateWorldCup(cfg WorldCupConfig) (*Trace, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("trace: invalid day count %d", cfg.Days)
	}
	if cfg.PeakRate <= 0 || math.IsNaN(cfg.PeakRate) || math.IsInf(cfg.PeakRate, 0) {
		return nil, fmt.Errorf("trace: invalid peak rate %v", cfg.PeakRate)
	}
	if cfg.Noise < 0 || cfg.Noise > 0.5 {
		return nil, fmt.Errorf("trace: invalid noise level %v", cfg.Noise)
	}
	burstLevel := cfg.BurstLevel
	if burstLevel == 0 && !cfg.DisableBursts {
		burstLevel = 1
	}
	if cfg.DisableBursts {
		burstLevel = 0
	}
	if burstLevel < 0 || burstLevel > 10 {
		return nil, fmt.Errorf("trace: invalid burst level %v", burstLevel)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	values := make([]float64, cfg.Days*SecondsPerDay)

	// The diurnal shape and the match-spike bumps depend only on the
	// second of the day, so each is tabulated once per call with the
	// same expression the per-second loop would evaluate.
	base := dayShape(diurnal)
	bumps := map[[2]float64][]float64{}
	matchDays := matchSchedule(cfg.Days, rng)
	maxRaw := 0.0
	for d := 0; d < cfg.Days; d++ {
		day := d + 1
		ramp := tournamentRamp(day)
		week := weeklyFactor(day)
		spikes := matchDays[day]
		bursts := flashCrowds(day, len(spikes) > 0, burstLevel, rng)
		vals := values[d*SecondsPerDay : (d+1)*SecondsPerDay]
		for s := range vals {
			vals[s] = ramp * week * base[s]
		}
		for _, sp := range spikes {
			key := [2]float64{sp.center, sp.width}
			bump, ok := bumps[key]
			if !ok {
				bump = dayShape(func(tod float64) float64 { return gaussianBump(tod, sp.center, sp.width) })
				bumps[key] = bump
			}
			for s := range vals {
				vals[s] *= 1 + sp.amplitude*bump[s]
			}
		}
		// Each burst touches only its own seconds. The per-sample multiply
		// order (base, spikes, bursts in index order, noise) is part of
		// the output: changing it moves the trace's fingerprint.
		for _, b := range bursts {
			for s := b.start; s < b.start+b.duration; s++ {
				if f := b.factorAt(s); f > 1 {
					vals[s] *= f
				}
			}
		}
		for s, v := range vals {
			if cfg.Noise > 0 {
				g := rng.NormFloat64()
				if g > 3 {
					g = 3
				} else if g < -3 {
					g = -3
				}
				v *= 1 + g*cfg.Noise
			}
			if v < 0 {
				v = 0
			}
			vals[s] = v
			if v > maxRaw {
				maxRaw = v
			}
		}
	}
	scale := cfg.PeakRate / maxRaw
	if math.IsInf(scale, 0) {
		return nil, fmt.Errorf("trace: peak rate %v is out of range: scaling the raw maximum %v to it overflows", cfg.PeakRate, maxRaw)
	}
	for i := range values {
		values[i] *= scale
	}
	return adopt(values)
}

// dayShape tabulates f at every second of the day.
func dayShape(f func(tod float64) float64) []float64 {
	out := make([]float64, SecondsPerDay)
	for s := range out {
		out[s] = f(float64(s) / SecondsPerDay)
	}
	return out
}

// diurnal is the within-day shape: a night trough around 04:00, rising
// through the morning to a daytime plateau and an evening peak around
// 20:30 (match prime time), normalized to peak 1.
func diurnal(tod float64) float64 {
	// Sum of two wrapped Gaussian humps over a floor.
	const floor = 0.12
	day := gaussianBump(tod, 14.0/24, 0.16)     // afternoon plateau
	evening := gaussianBump(tod, 20.5/24, 0.07) // evening prime time
	v := floor + 0.55*day + 1.0*evening
	return v / (floor + 0.55*gaussianBump(20.5/24, 14.0/24, 0.16) + 1.0)
}

// gaussianBump is a circular (wrap-around midnight) Gaussian of the given
// center and width, both in fraction-of-day units, with peak value 1.
func gaussianBump(tod, center, width float64) float64 {
	d := math.Abs(tod - center)
	if d > 0.5 {
		d = 1 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}

// tournamentRamp is the day-scale envelope: quiet pre-tournament traffic,
// exponential growth through the group stage, a maximum near the
// semi-finals/final (around day 75), then rapid decay.
func tournamentRamp(day int) float64 {
	d := float64(day)
	const peakDay = 75.0
	switch {
	case d <= 30:
		// Pre-tournament build-up: doubling roughly every 12 days.
		return 0.04 * math.Pow(2, d/12)
	case d <= peakDay:
		// Group stage through finals: continue growth to 1.0 at the peak.
		start := 0.04 * math.Pow(2, 30.0/12) // continuity at day 30
		return start * math.Pow(1.0/start, (d-30)/(peakDay-30))
	default:
		// Post-final decay.
		return math.Exp(-(d - peakDay) / 6)
	}
}

// weeklyFactor modulates weekends slightly downward.
func weeklyFactor(day int) float64 {
	switch day % 7 {
	case 0, 6:
		return 0.9
	default:
		return 1.0
	}
}

// spike is one match-window surge.
type spike struct {
	center    float64 // time of day in [0,1)
	width     float64 // fraction of day
	amplitude float64 // multiplicative boost at the center
}

// flashCrowd is one short burst: a triangular multiplicative surge.
type flashCrowd struct {
	start, duration int     // seconds within the day
	amplitude       float64 // peak multiplicative factor (> 1)
}

// factorAt returns the burst's multiplicative factor at second s of the
// day: a triangular ramp from 1 up to amplitude and back.
func (b flashCrowd) factorAt(s int) float64 {
	if s < b.start || s >= b.start+b.duration || b.duration <= 0 {
		return 1
	}
	frac := float64(s-b.start) / float64(b.duration)
	tri := 1 - math.Abs(2*frac-1) // 0 → 1 → 0
	return 1 + (b.amplitude-1)*tri
}

// flashCrowds generates the day's short bursts: a handful on quiet days,
// many on match days (goal events, kick-off reload storms), biased toward
// the afternoon and evening.
func flashCrowds(day int, matchDay bool, level float64, rng *rand.Rand) []flashCrowd {
	if level <= 0 {
		return nil
	}
	// Per-day burstiness with a heavy tail: most days are moderately
	// bursty, some are nearly calm (the paper's minimum-overhead days) and
	// a few are storms (its +161% day). Lognormal with sigma 1.4.
	dayFactor := math.Exp(1.4 * rng.NormFloat64())
	if dayFactor < 0.05 {
		dayFactor = 0.05
	}
	if dayFactor > 10 {
		dayFactor = 10
	}
	mean := 8.0
	if matchDay {
		mean = 25
	}
	count := int(mean * level * dayFactor * (0.5 + rng.Float64()))
	out := make([]flashCrowd, 0, count)
	knockout := day > 60
	for i := 0; i < count; i++ {
		// Bias burst times toward 12:00–23:00.
		start := int((12 + 11*rng.Float64()) * 3600)
		if rng.Float64() < 0.15 { // some bursts anywhere in the day
			start = rng.Intn(SecondsPerDay)
		}
		dur := 20 + rng.Intn(160)
		// Heavy-ish amplitude tail: mostly 1.5–2.5×, occasionally up to
		// 4× (and a little beyond on knockout goal storms).
		amp := 1.5 + rng.Float64()
		if rng.Float64() < 0.2 {
			amp = 2.5 + 1.5*rng.Float64()
		}
		if knockout && rng.Float64() < 0.3 {
			amp += rng.Float64()
		}
		if start+dur > SecondsPerDay {
			dur = SecondsPerDay - start
		}
		if dur <= 0 {
			continue
		}
		out = append(out, flashCrowd{start: start, duration: dur, amplitude: amp})
	}
	return out
}

// matchSchedule assigns match spikes to days: during the tournament window
// (days 31–75) most days carry one or two matches at 16:30 and/or 21:00;
// the knockout phase has stronger spikes.
func matchSchedule(days int, rng *rand.Rand) map[int][]spike {
	out := make(map[int][]spike)
	for day := 31; day <= days && day <= 78; day++ {
		if rng.Float64() < 0.25 {
			continue // rest day
		}
		knockout := day > 60
		amp := 0.6 + 0.4*rng.Float64()
		if knockout {
			amp = 1.2 + 0.8*rng.Float64()
		}
		s := []spike{{center: 21.0 / 24, width: 0.035, amplitude: amp}}
		if !knockout && rng.Float64() < 0.6 {
			s = append(s, spike{center: 16.5 / 24, width: 0.03, amplitude: 0.5 + 0.3*rng.Float64()})
		}
		out[day] = s
	}
	return out
}
