package main

import (
	"strings"
	"testing"
)

// TestParseBenchOutputCollapsesCPUVariants pins which variant a baseline
// entry's threshold applies to when one benchmark runs several times: the
// -GOMAXPROCS suffix is stripped, so every -cpu variant (and -count
// repeat) collapses to the snapshot's name, and the SLOWEST measurement
// wins. A max_factor entry for "BenchmarkEngineDayTrace" therefore gates
// the worst of BenchmarkEngineDayTrace-2/-4/... — the conservative choice
// for a regression gate.
func TestParseBenchOutputCollapsesCPUVariants(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
goos: linux
BenchmarkEngineDayTrace   	       1	   150000 ns/op
BenchmarkEngineDayTrace-2 	       1	   100000 ns/op
BenchmarkEngineDayTrace-4 	       1	   250000 ns/op	  512 B/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("variants did not collapse to one name: %v", out)
	}
	if got := out["BenchmarkEngineDayTrace"].ns; got != 250000 {
		t.Errorf("collapsed ns/op = %v, want 250000 (the slowest variant)", got)
	}
}

// TestParseBenchOutputKeepsSubBenchmarksDistinct pins the other half of
// the naming contract: stripping the -GOMAXPROCS suffix must not merge
// sub-benchmarks into their parent — each sub-benchmark keeps its own
// name and needs its own baseline entry (and max_factor).
func TestParseBenchOutputKeepsSubBenchmarksDistinct(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
BenchmarkFleetScaling/fleet=0-8  	       1	    90000 ns/op
BenchmarkFleetScaling/fleet=50-8 	       1	   700000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFleetScaling/fleet=0":  90000,
		"BenchmarkFleetScaling/fleet=50": 700000,
	}
	if len(out) != len(want) {
		t.Fatalf("sub-benchmarks merged: %v", out)
	}
	for name, ns := range want {
		if out[name].ns != ns {
			t.Errorf("%s = %v, want %v", name, out[name].ns, ns)
		}
	}
}

// TestParseBenchOutputNumericSubBenchmarkTail documents a sharp edge the
// baseline must be written around: a sub-benchmark whose name ENDS in
// -<number> (e.g. /size-100) is indistinguishable from a GOMAXPROCS
// suffix on an unsuffixed line, so the tail is stripped. With the usual
// -cpu suffix present the name survives intact; baseline entries must use
// the suffixless spelling go test emits on multi-core runners.
func TestParseBenchOutputNumericSubBenchmarkTail(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
BenchmarkGrow/size-100-8 	       1	    11000 ns/op
BenchmarkGrow/size-200-8 	       1	    22000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkGrow/size-100": 11000,
		"BenchmarkGrow/size-200": 22000,
	}
	for name, ns := range want {
		if out[name].ns != ns {
			t.Errorf("%s = %v, want %v (full map: %v)", name, out[name].ns, ns, out)
		}
	}
}

// TestParseBenchOutputIgnoresNoise pins that non-benchmark lines, names
// without measurements, and lines missing the ns/op unit never produce
// entries, while a malformed number on a real benchmark line is a hard
// error (a half-written results file must fail the gate, not pass it).
func TestParseBenchOutputIgnoresNoise(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
goos: linux
goarch: amd64
pkg: repro
BenchmarkShort-8
ok  	repro	1.201s
BenchmarkReal-8 	       1	    5000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out["BenchmarkReal"].ns != 5000 {
		t.Errorf("noise leaked into results: %v", out)
	}

	if _, err := parseBenchOutput(strings.NewReader(
		"BenchmarkBad-8 \t 1 \t not-a-number ns/op\n")); err == nil {
		t.Error("malformed ns/op value did not fail the parse")
	}
}

// TestParseBenchOutputAllocations pins the allocation columns: allocs/op
// and B/op are read beside ns/op, collapsed variants keep the largest of
// each, and a line without -benchmem columns reads as unmeasured (-1).
func TestParseBenchOutputAllocations(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
BenchmarkA-2 	       1	   150000 ns/op	  4096 B/op	      12 allocs/op
BenchmarkA-4 	       1	   100000 ns/op	  8192 B/op	      10 allocs/op
BenchmarkB-2 	       1	   500 ns/op	  3.5 kWh
`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out["BenchmarkA"], (measurement{ns: 150000, allocs: 12, bytes: 8192}); got != want {
		t.Errorf("BenchmarkA = %+v, want %+v", got, want)
	}
	if got, want := out["BenchmarkB"], (measurement{ns: 500, allocs: -1, bytes: -1}); got != want {
		t.Errorf("BenchmarkB = %+v, want %+v", got, want)
	}
	if _, err := parseBenchOutput(strings.NewReader(
		"BenchmarkBad-8 \t 1 \t 10 ns/op \t x allocs/op\n")); err == nil {
		t.Error("malformed allocs/op value did not fail the parse")
	}
}

// TestAllocStatus pins the allocation gate's edges: at or under
// base × allocFactor passes, anything over fails, and an unmeasured number
// fails rather than passing silently.
func TestAllocStatus(t *testing.T) {
	for _, c := range []struct {
		base, measured float64
		ok             bool
	}{
		{100, 100, true},
		{100, 110, true},
		{100, 111, false},
		{100, 50, true},
		{100, -1, false},
	} {
		if got := allocStatus(c.base, c.measured); (got == "ok") != c.ok {
			t.Errorf("allocStatus(%g, %g) = %q, want ok=%t", c.base, c.measured, got, c.ok)
		}
	}
}
