package bml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/profile"
)

// refExactTable and newRefExactTable are the exact DP as it was before
// the table became compact and growable: full int parents, a slice-shifting
// deque per architecture, one pass per architecture. They are kept
// verbatim as the oracle every table must match entry for entry.
type refExactTable struct {
	step    float64
	archs   []profile.Arch
	sizes   []int     // arch max perf in grid units
	cost    []float64 // optimal power to serve k units; +Inf if k == 0 -> 0
	fullArc []int     // knapsack parent: arch used at k (-1 none)
	partArc []int     // partial arch chosen at k (-1 if pure full)
	partX   []int     // partial load in units when partArc >= 0
}

func newRefExactTable(archs []profile.Arch, maxRate, step float64) *refExactTable {
	n := gridIndex(maxRate, step, math.MaxInt)
	t := &refExactTable{
		step:    step,
		archs:   append([]profile.Arch(nil), archs...),
		sizes:   make([]int, len(archs)),
		cost:    make([]float64, n+1),
		fullArc: make([]int, n+1),
		partArc: make([]int, n+1),
		partX:   make([]int, n+1),
	}
	for i, a := range archs {
		sz := int(math.Round(a.MaxPerf / step))
		if sz < 1 {
			sz = 1
		}
		t.sizes[i] = sz
	}
	// Unbounded knapsack for minFull: the optimal power using fully loaded
	// nodes only.
	full := make([]float64, n+1)
	t.fullArc[0] = -1
	for k := 1; k <= n; k++ {
		full[k] = math.Inf(1)
		t.fullArc[k] = -1
		for i := range archs {
			if sz := t.sizes[i]; sz <= k {
				if c := full[k-sz] + float64(archs[i].MaxPower); c < full[k] {
					full[k] = c
					t.fullArc[k] = i
				}
			}
		}
	}
	// cost[k]: start from pure-full, then improve with one partial node per
	// architecture using a sliding-window minimum over
	// g(j) = full[j] - slope_i * j for j in [k-size_i+1, k-1]
	// (partial load x = k - j in [1, size_i-1]).
	copy(t.cost, full)
	for k := range t.partArc {
		t.partArc[k] = -1
	}
	for i, a := range archs {
		sz := t.sizes[i]
		if sz < 2 {
			continue // a 1-unit node is always "full"; no partial loads exist
		}
		slope := (float64(a.MaxPower) - float64(a.IdlePower)) / float64(sz)
		idle := float64(a.IdlePower)
		// Monotone deque over indices j with key g(j) = full[j] - slope*j.
		g := func(j int) float64 { return full[j] - slope*float64(j) }
		var deque []int
		push := func(j int) {
			if math.IsInf(full[j], 1) {
				return
			}
			for len(deque) > 0 && g(deque[len(deque)-1]) >= g(j) {
				deque = deque[:len(deque)-1]
			}
			deque = append(deque, j)
		}
		for k := 1; k <= n; k++ {
			push(k - 1)
			lo := k - sz + 1
			for len(deque) > 0 && deque[0] < lo {
				deque = deque[1:]
			}
			if len(deque) == 0 {
				continue
			}
			j := deque[0]
			c := idle + slope*float64(k) + g(j) // = full[j] + idle + slope*(k-j)
			if c < t.cost[k]-1e-12 {
				t.cost[k] = c
				t.partArc[k] = i
				t.partX[k] = k - j
			}
		}
	}
	return t
}

// assertMatchesRef fails unless got has ref's grid step and every cost
// of ref, bit for bit.
func assertMatchesRef(t *testing.T, label string, got *exactTable, ref *refExactTable) {
	t.Helper()
	if got.step != ref.step || len(got.cost) != len(ref.cost) {
		t.Fatalf("%s: grid step %v with %d entries, reference %v with %d", label, got.step, len(got.cost), ref.step, len(ref.cost))
	}
	for k := range ref.cost {
		if math.Float64bits(got.cost[k]) != math.Float64bits(ref.cost[k]) {
			t.Fatalf("%s: cost[%d] = %v, reference %v", label, k, got.cost[k], ref.cost[k])
		}
	}
}

// refAt builds the reference table of exactly n units.
func refAt(t *testing.T, archs []profile.Arch, n int, step float64) *refExactTable {
	t.Helper()
	ref := newRefExactTable(archs, float64(n)*step, step)
	if len(ref.cost) != n+1 {
		t.Fatalf("reference for %d units at step %v has %d entries", n, step, len(ref.cost))
	}
	return ref
}

// randomArchs draws a valid candidate set of 1 to 5 classes, sizes 1 to
// 60 units of step, with idle and peak draws such that any class can win.
func randomArchs(rng *rand.Rand, step float64) []profile.Arch {
	archs := make([]profile.Arch, 1+rng.Intn(5))
	for i := range archs {
		idle := power.Watts(rng.Intn(50))
		archs[i] = profile.Arch{
			Name:      fmt.Sprintf("a%d", i),
			MaxPerf:   float64(1+rng.Intn(60)) * step,
			IdlePower: idle,
			MaxPower:  idle + power.Watts(1+rng.Intn(200)) + power.Watts(rng.Float64()),
		}
	}
	return SortByPerf(archs)
}

// TestExactTableMatchesParent holds fresh builds to the reference on the
// paper's candidates and on random candidate sets and steps.
func TestExactTableMatchesParent(t *testing.T) {
	cases := []struct {
		archs []profile.Arch
		step  float64
		n     int
	}{
		{paperCandidates(t), 1, 0},
		{paperCandidates(t), 1, 1},
		{paperCandidates(t), 1, 5400},
		{paperCandidates(t), 1, 62500},
		{paperCandidates(t), 0.5, 3000},
		{paperCandidates(t), 0.1, 20000}, // windows of up to 13,310 units
		{SortByPerf(profile.Illustrative()), 1, 4000},
		{SortByPerf(profile.PaperMachines()), 1, 3000},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		step := []float64{1, 0.25, 3, 0.1}[i%4]
		cases = append(cases, struct {
			archs []profile.Arch
			step  float64
			n     int
		}{randomArchs(rng, step), step, rng.Intn(3000)})
	}
	for i, c := range cases {
		got, err := newExactTable(c.archs, float64(c.n)*c.step, c.step)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesRef(t, fmt.Sprintf("case %d (%d units)", i, c.n), got, refAt(t, c.archs, c.n, c.step))
	}
}

// TestPlannerExactGrowthMatchesParent grows a planner's table through
// chains of Exact calls, rising and falling, that cross 0, every
// candidate's size, and the paper grid's 5,000 → 62,500 → 625,000 units.
// A call past the top must rebuild the table at exactly the asked size, a
// call below it must keep the table, and after every call the view and the
// published table must equal fresh reference builds of their sizes.
func TestPlannerExactGrowthMatchesParent(t *testing.T) {
	p := newPaperPlanner(t)
	cands := p.Candidates()
	var chain []float64
	chain = append(chain, 0, 0.5, 1)
	for _, a := range cands {
		chain = append(chain, a.MaxPerf-1, a.MaxPerf, a.MaxPerf+1, a.MaxPerf-3)
	}
	chain = append(chain, 1500, 1600, 1000, 2100, 5000, 4999.5, 62500, 10, 625000, 625000, 3)
	refs := map[int]*refExactTable{}
	ref := func(n int) *refExactTable {
		if refs[n] == nil {
			refs[n] = refAt(t, cands, n, 1)
		}
		return refs[n]
	}
	lastTop := -1
	for _, rate := range chain {
		view, err := p.Exact(rate)
		if err != nil {
			t.Fatal(err)
		}
		n := gridIndex(rate, 1, math.MaxInt)
		top := p.exact.table.Load()
		if top.maxUnits() < lastTop || top.maxUnits() < n {
			t.Fatalf("Exact(%v): table top %d after %d", rate, top.maxUnits(), lastTop)
		}
		if grown := top.maxUnits(); grown != lastTop {
			if grown != n {
				t.Fatalf("Exact(%v) grew the table from %d to %d, want %d", rate, lastTop, grown, n)
			}
			assertMatchesRef(t, fmt.Sprintf("table after Exact(%v)", rate), top, ref(grown))
			lastTop = grown
		}
		if n < 100000 {
			assertMatchesRef(t, fmt.Sprintf("Exact(%v)", rate), view.t, ref(n))
		} else if view.t.maxUnits() != n {
			t.Fatalf("Exact(%v) covers %d units", rate, view.t.maxUnits())
		}
	}
}

// TestPlannerExactConcurrent calls Exact from many goroutines at mixed
// rising and falling rates, so the table grows while views are read, and
// holds every answer to a fresh solver's and to the power of the
// reference DP's optimal combination.
func TestPlannerExactConcurrent(t *testing.T) {
	p := newPaperPlanner(t)
	const top = 40000
	fresh, err := NewExactSolver(p.Candidates(), top, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefExactTable(p.Candidates(), top, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				maxRate := rng.Float64() * top * float64(i+1) / 40
				if g%2 == 1 {
					maxRate = top * float64(40-i) / 40
				}
				view, err := p.Exact(maxRate)
				if err != nil {
					errs <- err
					return
				}
				n := gridIndex(maxRate, 1, math.MaxInt)
				want := &ExactSolver{t: fresh.t.prefix(n)}
				for _, r := range []float64{maxRate, rng.Float64() * maxRate, maxRate + 1} {
					if got, w := view.PowerAt(r), want.PowerAt(r); got != w {
						errs <- fmt.Errorf("Exact(%v).PowerAt(%v) = %v, want %v", maxRate, r, got, w)
						return
					}
					k := gridIndex(r, view.t.step, view.t.maxUnits())
					if got, w := view.t.cost[k], float64(ref.prefix(n).combinationAt(r).Power()); math.Abs(got-w) > 1e-6 {
						errs <- fmt.Errorf("Exact(%v) at unit %d costs %v, the reference combination %v", maxRate, k, got, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExactRejectsTooManyArchs: a candidate set past 255 classes is an
// error.
func TestExactRejectsTooManyArchs(t *testing.T) {
	archs := make([]profile.Arch, maxExactArchs+1)
	for i := range archs {
		archs[i] = profile.Arch{Name: fmt.Sprintf("a%03d", i), MaxPerf: float64(1 + i), IdlePower: 1, MaxPower: 2 + power.Watts(i)}
	}
	if _, err := NewExactSolver(archs[:maxExactArchs], 300, 1); err != nil {
		t.Fatalf("%d classes: %v", maxExactArchs, err)
	}
	_, err := NewExactSolver(archs, 300, 1)
	if err == nil || !strings.Contains(err.Error(), "at most 255") {
		t.Fatalf("%d classes: err = %v, want a rejection", len(archs), err)
	}
	p, err := NewPlanner(archs, WithPreFilteredCandidates(), WithThresholdMode(Homogeneous))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exact(300); err == nil {
		t.Fatalf("Planner.Exact over %d classes accepted", len(archs))
	}
	if _, err := p.Exact(math.NaN()); err == nil {
		t.Fatal("Planner.Exact(NaN) accepted")
	}
}

// FuzzExactGrowth grows one memo through arbitrary chains of tops,
// rising and falling, and holds each view and the table behind it to
// fresh reference builds. archs encodes up to five classes, three bytes
// each: size in units of step, idle draw, and dynamic draw; splits encodes
// tops two bytes each.
func FuzzExactGrowth(f *testing.F) {
	f.Fuzz(func(t *testing.T, archBytes []byte, step float64, splits []byte) {
		if !(step >= 0.01 && step <= 100) {
			return
		}
		var archs []profile.Arch
		for i := 0; i+3 <= len(archBytes) && len(archs) < 5; i += 3 {
			b := archBytes[i : i+3]
			archs = append(archs, profile.Arch{
				Name:      fmt.Sprintf("a%d", len(archs)),
				MaxPerf:   float64(1+int(b[0])%64) * step,
				IdlePower: power.Watts(b[1]),
				MaxPower:  power.Watts(b[1]) + power.Watts(1+int(b[2])),
			})
		}
		if len(archs) == 0 {
			return
		}
		archs = SortByPerf(archs)
		var m exactMemo
		for i := 0; i+2 <= len(splits) && i < 16; i += 2 {
			n := (int(splits[i])<<8 | int(splits[i+1])) % 5000
			view, err := m.at(archs, n, step)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesRef(t, fmt.Sprintf("view at %d", n), view, refAt(t, archs, n, step))
			top := m.table.Load()
			assertMatchesRef(t, fmt.Sprintf("table after at(%d)", n), top, refAt(t, archs, top.maxUnits(), step))
		}
	})
}

// Reconstruction of the optimal multiset from the reference table's
// parent arrays, which tests use to check what the DP chose.

// prefix returns a view of entries 0..n, which must exist.
func (t *refExactTable) prefix(n int) *refExactTable {
	v := *t
	v.cost, v.fullArc, v.partArc, v.partX = v.cost[:n+1], v.fullArc[:n+1], v.partArc[:n+1], v.partX[:n+1]
	return &v
}

// combinationAt reconstructs the optimal multiset for the given rate,
// clamped to the table like a solver's query.
func (t *refExactTable) combinationAt(rate float64) Combination {
	k := gridIndex(rate, t.step, len(t.cost)-1)
	c := newCombination(t.archs)
	if k == 0 {
		return c
	}
	if i := t.partArc[k]; i >= 0 {
		x := t.partX[k]
		c.addPartial(t.archs[i], float64(x)*t.step)
		k -= x
	}
	for k > 0 {
		i := t.fullArc[k]
		if i < 0 {
			// Rate not exactly coverable; report the infeasible remainder.
			c.Infeasible = float64(k) * t.step
			break
		}
		c.addFull(t.archs[i], 1)
		k -= t.sizes[i]
	}
	return c
}

// refPowerAt is exactTable.powerAt as it was before it priced unit-grid
// rates without dividing: the oracle powerAt must match bit for bit.
func refPowerAt(t *exactTable, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	exact := rate / t.step
	k1 := gridIndex(rate, t.step, t.maxUnits())
	k0 := k1 - 1
	if k0 < 0 || float64(k1) <= exact {
		return t.cost[k1]
	}
	frac := exact - float64(k0)
	c0, c1 := t.cost[k0], t.cost[k1]
	if math.IsInf(c0, 1) || math.IsInf(c1, 1) {
		return t.cost[k1]
	}
	return c0 + frac*(c1-c0)
}

// TestPowerAtMatchesParent holds powerAt to refPowerAt on tables of the
// paper's and of random candidates at unit and other steps, and on tables
// with uncoverable (+Inf) entries, at rates on and between grid points,
// within the grid tolerance of them, past the top, and at NaN, ±Inf, 0
// and negative rates.
func TestPowerAtMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tables []*exactTable
	for _, step := range []float64{1, 0.5, 0.1, 3} {
		for _, archs := range [][]profile.Arch{paperCandidates(t), randomArchs(rng, step), randomArchs(rng, step)} {
			tab, err := newExactTable(archs, 400*step, step)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tab, tab.prefix(0), tab.prefix(1))
		}
	}
	inf := math.Inf(1)
	for _, step := range []float64{1, 0.5} {
		tables = append(tables, &exactTable{step: step, cost: []float64{0, inf, 5, inf, inf, 9, 10, inf}})
	}
	for _, tab := range tables {
		top := float64(tab.maxUnits()) * tab.step
		rates := []float64{math.NaN(), inf, -inf, 0, math.Copysign(0, -1), -1, 1e-10, 1e-9, 2e-9, 1e300, top, top + 0.5, top * 2}
		for k := 0; k <= tab.maxUnits()+2; k++ {
			r := float64(k) * tab.step
			rates = append(rates, r, r+1e-10*tab.step, r-1e-10*tab.step, r+1e-9*tab.step, r-1e-9*tab.step,
				math.Nextafter(r, inf), math.Nextafter(r, -inf), r+0.5*tab.step, r+rng.Float64()*tab.step)
		}
		for _, r := range rates {
			if got, want := tab.powerAt(r), refPowerAt(tab, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %v, %d units: powerAt(%v) = %v, reference %v", tab.step, tab.maxUnits(), r, got, want)
			}
		}
	}
}
