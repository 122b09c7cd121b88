// Command benchcheck is the CI benchmark-regression gate: it parses the
// output of a `go test -bench` smoke run (-benchtime=1x) and compares each
// benchmark's ns/op against the committed baseline snapshot
// (BENCH_sim.json), failing when any benchmark is slower than the baseline
// by more than a generous factor. Single-iteration timings on shared CI
// runners are noisy, so the default threshold (10x) only catches
// order-of-magnitude regressions — an accidental O(fleet) scan back on the
// hot path, a predictor rebuilt per cell — not percent-level drift. A
// baseline entry can carry its own "max_factor" to override the default:
// long-running benchmarks whose per-iteration noise is small can gate
// tighter than the global threshold without making the short noisy ones
// flake.
//
// Coverage is part of the gate: every benchmark named in the baseline must
// appear in the run output, so deleting or renaming a benchmark (or
// narrowing the -bench regex) fails loudly instead of silently shrinking
// the gate. Intentional gaps go in -allow-missing.
//
// The baseline may also declare "ratios": pairs of benchmarks where one is
// required to beat the other by at least min_factor, compared on the
// *measured* numbers of the same run. Unlike the per-benchmark thresholds —
// which compare against a committed snapshot and so absorb host-speed
// differences badly — a ratio gate is host-independent: both sides run on
// the same machine in the same invocation, so it can assert algorithmic
// claims ("the interval integrator is ≥10x the tick loop on a raw
// trace") without flaking on slow runners.
//
// Allocations are gated too, and tightly: allocs/op and B/op are nearly
// deterministic for a fixed input, so a row that records allocs_per_op or
// bytes_per_op fails when the run measures more than allocFactor (1.1)
// times either number. A row whose allocations differ at -benchtime 1x from
// the recorded medians (first-iteration warm-up, scheduling-dependent
// buffers) names the reason in "alloc_exempt" and is gated on ns/op only.
// A gated row whose run output carries no allocation numbers fails: run
// with -benchmem.
//
// Usage:
//
//	go test -run xxx -bench 'EngineDayTrace|FleetScaling' -benchtime 1x -benchmem . | tee bench.txt
//	go run ./scripts/benchcheck -baseline BENCH_sim.json -results bench.txt -factor 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baseline mirrors the slice of BENCH_sim.json benchcheck consumes. A
// result may carry its own max_factor: tight, stable benchmarks (long
// wall-per-op runs whose single-iteration noise is small) can gate harder
// than the global default without tightening the noisy short ones.
type baseline struct {
	Results []struct {
		Benchmark   string  `json:"benchmark"`
		NsPerOp     float64 `json:"ns_per_op"`
		MaxFactor   float64 `json:"max_factor,omitempty"`
		AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
		BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
		// AllocExempt, when set, says why the row's allocation numbers
		// are not gated.
		AllocExempt string `json:"alloc_exempt,omitempty"`
	} `json:"results"`
	// Ratios gates measured-vs-measured speedups within one run: the
	// Faster benchmark's ns/op must be at least MinFactor below the
	// Slower's. Both names must exist in Results (the coverage gate then
	// guarantees both ran).
	Ratios []struct {
		Faster    string  `json:"faster"`
		Slower    string  `json:"slower"`
		MinFactor float64 `json:"min_factor"`
	} `json:"ratios,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	var (
		baselinePath = flag.String("baseline", "BENCH_sim.json", "committed benchmark snapshot")
		resultsPath  = flag.String("results", "", "`go test -bench` output to check (default stdin)")
		factor       = flag.Float64("factor", 10, "fail when measured ns/op exceeds baseline × factor (a baseline entry's own max_factor overrides this per benchmark)")
		allowMissing = flag.String("allow-missing", "", "regexp of baseline benchmarks allowed to be absent from the run (default: none — a missing benchmark fails the gate)")
	)
	flag.Parse()
	if *factor <= 1 {
		log.Fatalf("invalid -factor %g (want > 1)", *factor)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("%s: %v", *baselinePath, err)
	}

	in := os.Stdin
	if *resultsPath != "" {
		f, err := os.Open(*resultsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBenchOutput(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(measured) == 0 {
		log.Fatal("no benchmark results found (did the bench run fail?)")
	}

	var allowed *regexp.Regexp
	if *allowMissing != "" {
		if allowed, err = regexp.Compile(*allowMissing); err != nil {
			log.Fatalf("invalid -allow-missing: %v", err)
		}
	}

	// Every baseline benchmark must appear in the run output: a silent
	// skip would let a deleted or renamed benchmark drop out of the
	// regression gate while the gate still reports green.
	var missing []string
	for _, b := range base.Results {
		if _, ok := measured[b.Benchmark]; !ok {
			if allowed != nil && allowed.MatchString(b.Benchmark) {
				continue
			}
			missing = append(missing, b.Benchmark)
		}
	}
	if len(missing) > 0 {
		for _, name := range missing {
			log.Printf("baseline benchmark missing from run output: %s", name)
		}
		log.Fatalf("%d baseline benchmarks never ran — deleted or renamed? update %s and the -bench regex together (or list intentional gaps in -allow-missing)",
			len(missing), *baselinePath)
	}

	regressions, compared := 0, 0
	for _, b := range base.Results {
		got, ok := measured[b.Benchmark]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		threshold := *factor
		if b.MaxFactor != 0 {
			if b.MaxFactor <= 1 {
				log.Fatalf("%s: invalid max_factor %g in %s (want > 1)", b.Benchmark, b.MaxFactor, *baselinePath)
			}
			threshold = b.MaxFactor
		}
		compared++
		ratio := got.ns / b.NsPerOp
		status := "ok"
		if ratio > threshold {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-55s baseline %12.0f ns/op  measured %12.0f ns/op  ratio %5.2fx  (max %gx)  %s\n",
			b.Benchmark, b.NsPerOp, got.ns, ratio, threshold, status)
		if b.AllocExempt != "" {
			continue
		}
		for _, g := range []struct {
			unit       string
			base, meas float64
		}{{"allocs/op", b.AllocsPerOp, got.allocs}, {"B/op", b.BytesPerOp, got.bytes}} {
			if g.base == 0 {
				continue
			}
			status := allocStatus(g.base, g.meas)
			if status != "ok" {
				regressions++
			}
			fmt.Printf("%-55s baseline %12.0f %-9s measured %12.0f %-9s (max %gx)  %s\n",
				"", g.base, g.unit, g.meas, g.unit, allocFactor, status)
		}
	}
	if compared == 0 {
		log.Fatal("no measured benchmark matched the baseline — name drift between bench_test.go and BENCH_sim.json?")
	}

	// Ratio gates: measured vs measured, host-independent by construction.
	inResults := map[string]bool{}
	for _, b := range base.Results {
		inResults[b.Benchmark] = true
	}
	for _, r := range base.Ratios {
		if r.MinFactor <= 1 {
			log.Fatalf("ratio %s vs %s: invalid min_factor %g in %s (want > 1)", r.Faster, r.Slower, r.MinFactor, *baselinePath)
		}
		// Requiring both sides in Results means the coverage gate above has
		// already guaranteed they ran (or were explicitly allow-listed away,
		// which skips the ratio too).
		if !inResults[r.Faster] || !inResults[r.Slower] {
			log.Fatalf("ratio %s vs %s: both benchmarks must also appear in %s results", r.Faster, r.Slower, *baselinePath)
		}
		fastM, okF := measured[r.Faster]
		slowM, okS := measured[r.Slower]
		if !okF || !okS {
			log.Printf("ratio %s vs %s: skipped (allow-missing benchmark)", r.Faster, r.Slower)
			continue
		}
		fast, slow := fastM.ns, slowM.ns
		if fast <= 0 {
			log.Fatalf("ratio %s vs %s: non-positive measured ns/op %g", r.Faster, r.Slower, fast)
		}
		compared++
		speedup := slow / fast
		status := "ok"
		if speedup < r.MinFactor {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-55s speedup %5.2fx over %s  (min %gx)  %s\n",
			r.Faster, speedup, r.Slower, r.MinFactor, status)
	}

	if regressions > 0 {
		log.Fatalf("%d of %d benchmarks regressed past their threshold (default %gx, per-benchmark max_factor overrides)", regressions, compared, *factor)
	}
	fmt.Printf("%d benchmarks within their thresholds (default %gx)\n", compared, *factor)
}

// allocFactor is the allocation gate's bound: allocs/op and B/op barely
// move between runs of one input, so 10% over the recorded value is a
// regression, not noise.
const allocFactor = 1.1

// allocStatus is the allocation gate for one number: "ok" when measured
// stays within base × allocFactor, else why the row fails. A negative
// measured value means the run reported no allocation columns.
func allocStatus(base, measured float64) string {
	switch {
	case measured < 0:
		return "NOT MEASURED (run with -benchmem)"
	case measured > base*allocFactor:
		return "REGRESSION"
	}
	return "ok"
}

// measurement is one benchmark's numbers in a run. allocs and bytes are -1
// when the output line carries no allocation columns (no -benchmem and no
// b.ReportAllocs).
type measurement struct {
	ns, allocs, bytes float64
}

// parseBenchOutput extracts each benchmark's ns/op, allocs/op and B/op
// from go test -bench output. Names are normalized by stripping the
// trailing -GOMAXPROCS suffix so they match the snapshot's names; when
// several runs collapse to one name (-cpu variants, -count repeats) the
// largest value of each number is kept, so a baseline entry — and its
// max_factor — always gates the worst measured variant (conservative for
// a gate). Sub-benchmark names (Benchmark/sub) stay distinct after suffix
// stripping: each needs its own baseline entry.
func parseBenchOutput(r io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := measurement{ns: -1, allocs: -1, bytes: -1}
		for i := 2; i < len(fields); i++ {
			var dst *float64
			switch fields[i] {
			case "ns/op":
				dst = &m.ns
			case "allocs/op":
				dst = &m.allocs
			case "B/op":
				dst = &m.bytes
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %v", sc.Text(), err)
			}
			*dst = v
		}
		if m.ns < 0 {
			continue
		}
		if prev, ok := out[name]; ok {
			m.ns = max(m.ns, prev.ns)
			m.allocs = max(m.allocs, prev.allocs)
			m.bytes = max(m.bytes, prev.bytes)
		}
		out[name] = m
	}
	return out, sc.Err()
}
