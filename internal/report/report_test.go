package report

import (
	"strings"
	"testing"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wc98"
)

func paperPlanner(t *testing.T) *bml.Planner {
	t.Helper()
	p, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTableAlignment(t *testing.T) {
	var sb strings.Builder
	err := Table(&sb, []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"yyyyyy", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[1], "------") {
		t.Errorf("separator missing: %q", lines[1])
	}
	// Second column of all rows starts at the same offset.
	off := strings.Index(lines[0], "long-header")
	if !strings.HasPrefix(lines[2][off:], "1") || !strings.HasPrefix(lines[3][off:], "2") {
		t.Errorf("columns misaligned:\n%s", sb.String())
	}
}

func TestTableShortRow(t *testing.T) {
	var sb strings.Builder
	if err := Table(&sb, []string{"a", "b"}, [][]string{{"only"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Error("short row dropped")
	}
}

func TestCSVFormat(t *testing.T) {
	var sb strings.Builder
	if err := CSV(&sb, []string{"x", "y"}, [][]string{{"1", "2"}, {"3", "4"}}); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestTableIContainsAllMachines(t *testing.T) {
	var sb strings.Builder
	if err := TableI(&sb, profile.PaperMachines()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"paravance", "taurus", "graphene", "chromebook", "raspberry"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table I missing %s:\n%s", name, out)
		}
	}
	// Spot-check the exact paper constants appear.
	for _, token := range []string{"1331", "69.9 - 200.5", "21341.0", "40.5"} {
		if !strings.Contains(out, token) {
			t.Errorf("Table I missing value %q", token)
		}
	}
}

func TestProfileSeriesHeaderAndLength(t *testing.T) {
	var sb strings.Builder
	archs := profile.Illustrative()
	if err := ProfileSeries(&sb, archs, 1000, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 12 { // header + 11 points
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "rate,A_W,B_W,C_W,D_W" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRemovalsOutput(t *testing.T) {
	var sb strings.Builder
	if err := Removals(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no architectures removed") {
		t.Error("empty removals not reported")
	}
	sb.Reset()
	_, removed, err := bml.SelectCandidates(profile.PaperMachines(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Removals(&sb, removed); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "taurus") || !strings.Contains(out, "graphene") {
		t.Errorf("removals missing machines:\n%s", out)
	}
}

func TestThresholdsOutput(t *testing.T) {
	p := paperPlanner(t)
	var sb strings.Builder
	roles := map[string]string{"paravance": "Big", "chromebook": "Medium", "raspberry": "Little"}
	if err := Thresholds(&sb, p.Thresholds(), roles, bml.Combinations); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, token := range []string{"Big", "Medium", "Little", "529", "10"} {
		if !strings.Contains(out, token) {
			t.Errorf("thresholds output missing %q:\n%s", token, out)
		}
	}
}

func TestFig4Series(t *testing.T) {
	p := paperPlanner(t)
	var sb strings.Builder
	if err := Fig4Series(&sb, p, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != "rate,bml_W,big_W,bml_linear_W" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 22 {
		t.Errorf("lines = %d, want 22", len(lines))
	}
	// Last row is at Big's max perf where all three curves converge near
	// 200.5 W.
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "1331.0,") {
		t.Errorf("last row = %q", last)
	}
}

func TestCombinationTable(t *testing.T) {
	p := paperPlanner(t)
	var sb strings.Builder
	if err := CombinationTable(&sb, p, []float64{9, 10, 529}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "raspberry") || !strings.Contains(out, "chromebook") || !strings.Contains(out, "paravance") {
		t.Errorf("combination table missing classes:\n%s", out)
	}
}

func TestFig5Outputs(t *testing.T) {
	cfg := trace.WorldCupConfig{Days: 2, PeakRate: 4500, Seed: 3, Noise: 0.03}
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := wc98.Run(tr, profile.PaperMachines(), wc98.Config{FirstDay: 1, LastDay: 2, BML: sim.BMLConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	var tbl strings.Builder
	if err := Fig5Table(&tbl, ev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "BML_kWh") || !strings.Contains(tbl.String(), "mean +") {
		t.Errorf("Fig5 table incomplete:\n%s", tbl.String())
	}
	var csv strings.Builder
	if err := Fig5CSV(&csv, ev); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("Fig5 CSV lines = %d, want header + 2 days", len(lines))
	}
}

// TestFig5OutputsEnginesByteIdentical renders the Figure 5 table and CSV
// of one quantized evaluation run on the interval integrator and on the
// 1 Hz tick oracle, and requires the same bytes from both.
func TestFig5OutputsEnginesByteIdentical(t *testing.T) {
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 8
	raw, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := raw.Quantize(600)
	if err != nil {
		t.Fatal(err)
	}
	render := func(opts ...sim.Option) string {
		t.Helper()
		ev, err := wc98.Run(tr, profile.PaperMachines(), wc98.Config{FirstDay: 1, LastDay: 8, Sim: opts})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := Fig5Table(&out, ev); err != nil {
			t.Fatal(err)
		}
		if err := Fig5CSV(&out, ev); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	integ, tick := render(), render(sim.WithTickEngine())
	if integ != tick {
		t.Errorf("Figure 5 output differs between engines:\nintegrator:\n%s\ntick:\n%s", integ, tick)
	}
}

func TestProportionality(t *testing.T) {
	var sb strings.Builder
	curve := []power.CurvePoint{{Utilization: 0, Power: 50}, {Utilization: 100, Power: 100}}
	if err := Proportionality(&sb, "test", curve); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "IPR=0.500") {
		t.Errorf("proportionality output = %q", sb.String())
	}
	if err := Proportionality(&sb, "bad", nil); err == nil {
		t.Error("nil curve accepted")
	}
}
