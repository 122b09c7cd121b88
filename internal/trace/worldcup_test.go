package trace

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestGenerateWorldCupFingerprints pins the generator's output bit for bit.
// Cell identity keys embed trace.Fingerprint, so a generator change that
// moves a single sample would silently miss every cached cell and move
// every golden: any speed-up of GenerateWorldCup must keep these values.
// They are pinned on amd64, where the compiler never fuses a multiply and
// an add; architectures with fused multiply-add round some samples
// differently and get traces of their own.
func TestGenerateWorldCupFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64, not %s", runtime.GOARCH)
	}
	def := DefaultWorldCupConfig()
	with := func(f func(*WorldCupConfig)) WorldCupConfig {
		c := def
		f(&c)
		return c
	}
	for _, c := range []struct {
		name string
		cfg  WorldCupConfig
		want uint64
	}{
		{"default", def, 0x463da1e62d6206f2},
		{"seed 1", with(func(c *WorldCupConfig) { c.Seed = 1 }), 0xc605f93d4197e14e},
		{"17 days", with(func(c *WorldCupConfig) { c.Days = 17 }), 0x3501532f0b76ab5f},
		{"burst level 10", with(func(c *WorldCupConfig) { c.Days, c.Seed, c.BurstLevel = 65, 3, 10 }), 0xf72028151d082909},
		{"bursts disabled", with(func(c *WorldCupConfig) { c.Days, c.DisableBursts = 40, true }), 0xb6dc75c32c75bfdd},
		{"noise 0", with(func(c *WorldCupConfig) { c.Days, c.Noise = 40, 0 }), 0x842b3c2157f3f2b8},
		{"3 days, low noise", WorldCupConfig{Days: 3, PeakRate: 1000, Seed: 7, Noise: 0.05, BurstLevel: 1}, 0x160700e04cc77d80},
		{"40 days, half bursts", with(func(c *WorldCupConfig) { c.Days, c.Seed, c.BurstLevel = 40, 5, 0.5 }), 0x6d899d207016de04},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tr, err := GenerateWorldCup(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Fingerprint(); got != c.want {
				t.Errorf("fingerprint %016x, want %016x", got, c.want)
			}
		})
	}
}

// TestGenerateWorldCupPeakWithinOneRounding holds the generator to its
// documented peak contract: the global maximum is PeakRate up to the one
// rounding of the final scale multiply. Exact equality does not hold (seed
// 5 at peak 5000 peaks at 5000.000000000001), so the test must not ask for
// it.
func TestGenerateWorldCupPeakWithinOneRounding(t *testing.T) {
	const eps = 0x1p-52
	for _, peak := range []float64{1, 7.5, 5000, 12345.678} {
		t.Run(fmt.Sprint(peak), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 40; seed++ {
				tr, err := GenerateWorldCup(WorldCupConfig{Days: 1, PeakRate: peak, Seed: seed, Noise: 0.13, BurstLevel: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := tr.Max(); math.Abs(got-peak) > peak*eps {
					t.Errorf("seed %d: Max = %v, off by more than one rounding", seed, got)
				}
			}
		})
	}
}

func TestGenerateWorldCupRejectsOverflowingPeak(t *testing.T) {
	for _, peak := range []float64{1e308, math.MaxFloat64} {
		_, err := GenerateWorldCup(WorldCupConfig{Days: 1, PeakRate: peak, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "peak rate") {
			t.Errorf("PeakRate %v: err = %v, want an error naming the peak rate", peak, err)
		}
	}
}

// TestGenerateWorldCupOwnsItsSamples checks the copy-free hand-over: the
// generated trace is valid by New's rules and shares its backing array
// with nothing a caller can reach.
func TestGenerateWorldCupOwnsItsSamples(t *testing.T) {
	cfg := WorldCupConfig{Days: 2, PeakRate: 800, Seed: 3, Noise: 0.13, BurstLevel: 1}
	a, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := a.Values()
	again, err := New(vals)
	if err != nil {
		t.Fatalf("New rejects a generated trace's samples: %v", err)
	}
	if again.Fingerprint() != a.Fingerprint() {
		t.Fatal("New changed a generated trace's samples")
	}
	b, err := GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := a.SlidingMax(300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		vals[i] = -1
		sm[i] = -1
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("sample %d changed through a caller-held slice", i)
		}
	}
	if &a.values[0] == &b.values[0] {
		t.Fatal("two generated traces share a backing array")
	}
}

// TestAdoptValidatesWithoutCopying: New's validation tests cover adopt,
// which New calls; this pins that adopt takes the slice as it is.
func TestAdoptValidatesWithoutCopying(t *testing.T) {
	if _, err := adopt([]float64{1, math.NaN()}); err == nil {
		t.Error("adopt accepted a NaN")
	}
	in := []float64{0, 1.5, 3}
	tr, err := adopt(in)
	if err != nil {
		t.Fatal(err)
	}
	if &tr.values[0] != &in[0] {
		t.Error("adopt copied its input")
	}
}
