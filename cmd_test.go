package repro_test

// Command-level integration tests: each cmd binary is compiled once and
// executed with fast flags, asserting the documented output appears. These
// are the same invocations EXPERIMENTS.md lists.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildCmds compiles the command binaries into a shared temp dir once.
var builtCmds struct {
	dir string
	err error
}

func cmdBinary(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("cmd integration test")
	}
	if builtCmds.dir == "" && builtCmds.err == nil {
		dir, err := os.MkdirTemp("", "bmlcmds")
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			builtCmds.err = err
			t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
		}
		builtCmds.dir = dir
	}
	if builtCmds.err != nil {
		t.Fatalf("cmd build previously failed: %v", builtCmds.err)
	}
	return filepath.Join(builtCmds.dir, name)
}

func runCmd(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(cmdBinary(t, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCmdBMLPlan(t *testing.T) {
	out := runCmd(t, "bmlplan", "-crossings", "-table", "-metrics")
	for _, want := range []string{
		"step 2 removed taurus",
		"step 3 removed graphene",
		"529",
		"IPR=0.000", // BML combination idles at zero
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bmlplan output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdBMLPlanIllustrativeAndFig4(t *testing.T) {
	out := runCmd(t, "bmlplan", "-illustrative", "-crossings")
	if !strings.Contains(out, "step 2 removed D") {
		t.Errorf("illustrative filtering missing:\n%s", out)
	}
	csv := runCmd(t, "bmlplan", "-fig4", "-points", "10")
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "rate,bml_W,big_W,bml_linear_W" || len(lines) != 12 {
		t.Errorf("fig4 CSV malformed:\n%s", csv)
	}
}

func TestCmdBMLProfile(t *testing.T) {
	out := runCmd(t, "bmlprofile", "-noise", "0.015")
	if !strings.Contains(out, "paravance") || !strings.Contains(out, "worst relative deviation") {
		t.Errorf("bmlprofile output incomplete:\n%s", out)
	}
	series := runCmd(t, "bmlprofile", "-series", "-points", "5")
	if !strings.HasPrefix(series, "rate,paravance_W") {
		t.Errorf("fig3 series header wrong:\n%s", series)
	}
}

func TestCmdBMLTraceGenerateAndReload(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "t.txt")
	out := runCmd(t, "bmltrace", "-days", "1", "-out", file)
	if !strings.Contains(out, "86400") {
		t.Errorf("bmltrace output missing sample count:\n%s", out)
	}
	back := runCmd(t, "bmltrace", "-in", file, "-stats")
	if !strings.Contains(back, "day  peak_req/s") {
		t.Errorf("stats output missing:\n%s", back)
	}
}

func TestCmdBMLTraceFromLog(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "access.log")
	var sb strings.Builder
	sb.WriteString("garbage\n")
	for i := 0; i < 10; i++ {
		sb.WriteString(`h - - [01/Jul/1998:12:00:0` + string(rune('0'+i%10)) + ` +0000] "GET / HTTP/1.0" 200 1` + "\n")
	}
	if err := os.WriteFile(logFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "bmltrace", "-from-log", logFile)
	if !strings.Contains(out, "skipped 1 unparsable") {
		t.Errorf("skip report missing:\n%s", out)
	}
	if !strings.Contains(out, "samples: 10") {
		t.Errorf("sample count wrong:\n%s", out)
	}
}

func TestCmdBMLSim(t *testing.T) {
	out := runCmd(t, "bmlsim", "-days", "2", "-first", "1", "-last", "2")
	for _, want := range []string{"BML_kWh", "mean +", "scheduler:", "BML energy breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("bmlsim output missing %q:\n%s", want, out)
		}
	}
	csv := runCmd(t, "bmlsim", "-days", "2", "-first", "1", "-last", "2", "-csv")
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "day,") {
		t.Errorf("bmlsim CSV malformed:\n%s", csv)
	}
}

func TestCmdBMLSimFleetScaling(t *testing.T) {
	out := runCmd(t, "bmlsim", "-days", "1", "-first", "1", "-last", "1",
		"-quantize", "600", "-fleet", "150")
	if !strings.Contains(out, "fleet scaling: load ×") {
		t.Errorf("fleet-scaling note missing:\n%s", out)
	}
	if !strings.Contains(out, "scheduler:") {
		t.Errorf("fleet-scaled run did not complete:\n%s", out)
	}
}

// runCmdErr runs a command expecting a non-zero exit, returning combined
// output.
func runCmdErr(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(cmdBinary(t, name), args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", name, args, out)
	}
	return string(out)
}

// sweepGridArgs is the shared grid spec for the distributed-sweep cmd
// tests: 1 generated day, 10-minute plateaus, paper scale plus a small
// fleet-scaled axis. Workers and coordinator must agree on these.
var sweepGridArgs = []string{"-days", "1", "-quantize", "600", "-fleets", "0,50"}

func TestCmdBMLSimSweepShardAndMerge(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	out := runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "0/2", "-out", s0}, sweepGridArgs...)...)
	if !strings.Contains(out, "shard 0/2: streamed") {
		t.Errorf("worker summary missing:\n%s", out)
	}
	runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "1/2", "-out", s1}, sweepGridArgs...)...)

	// Each record is a self-describing JSON line.
	raw, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		for _, field := range []string{`"id":"`, `"scenario":"`, `"trace_hash":"`, `"total_J":`, `"wall_ms":`} {
			if !strings.Contains(line, field) {
				t.Errorf("JSONL record missing %s: %s", field, line)
			}
		}
	}

	// Merging both shards covers the grid; the merged table carries every
	// cell of the scenario × fleet axes.
	merged := runCmd(t, "bmlsweep", append(append([]string{}, sweepGridArgs...), s0, s1)...)
	for _, want := range []string{"bml/fleet=0", "lowerbound/fleet=50", "8 cells", "total_kWh"} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged table missing %q:\n%s", want, merged)
		}
	}

	// A deliberately incomplete merge must fail and name the missing cells.
	out = runCmdErr(t, "bmlsweep", append(append([]string{}, sweepGridArgs...), s0)...)
	if !strings.Contains(out, "missing cell") || !strings.Contains(out, "merge incomplete") {
		t.Errorf("incomplete merge diagnostics missing:\n%s", out)
	}
}

func TestCmdBMLSweepSpawn(t *testing.T) {
	bin := cmdBinary(t, "bmlsim")
	out := runCmd(t, "bmlsweep", append([]string{"-spawn", "2", "-bin", bin, "-dir", t.TempDir(), "-csv"}, sweepGridArgs...)...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var csvLines []string
	for _, l := range lines {
		if strings.Contains(l, ",") && !strings.HasPrefix(l, "bmlsweep:") {
			csvLines = append(csvLines, l)
		}
	}
	if len(csvLines) != 9 || !strings.HasPrefix(csvLines[0], "cell,scenario,trace,config,config_hash,fleet_scale") {
		t.Errorf("spawned sweep CSV malformed (%d csv lines):\n%s", len(csvLines), out)
	}
}

func TestCmdBMLSimRejectsMalformedShard(t *testing.T) {
	for _, spec := range []string{"0/0", "3/2", "-1/2", "x/2", "2"} {
		out := runCmdErr(t, "bmlsim", "-sweep", "-shard", spec)
		if !strings.Contains(out, "shard") {
			t.Errorf("spec %q: unhelpful error:\n%s", spec, out)
		}
	}
	// -shard outside sweep mode is rejected too.
	out := runCmdErr(t, "bmlsim", "-shard", "0/2")
	if !strings.Contains(out, "requires -sweep") {
		t.Errorf("-shard without -sweep not rejected:\n%s", out)
	}
	// Ablation knobs change cell results without changing canonical cell
	// IDs, so sweep mode must refuse them rather than let divergent
	// workers merge into a silently inconsistent report.
	for _, args := range [][]string{
		{"-sweep", "-overhead-aware"},
		{"-sweep", "-headroom", "1.2"},
		{"-sweep", "-critical"},
		{"-sweep", "-predictor", "ewma"},
	} {
		out := runCmdErr(t, "bmlsim", append(args, "-days", "1")...)
		if !strings.Contains(out, "classic-mode only") {
			t.Errorf("bmlsim %v: ablation knob not rejected in sweep mode:\n%s", args, out)
		}
	}
}

func TestCmdBMLSweepSpawnWorkerFailureNamesMissingCells(t *testing.T) {
	// A worker binary that cannot run means no shard file is ever written;
	// the coordinator must still merge what exists and name the missing
	// cells instead of dying on the unreadable file.
	out := runCmdErr(t, "bmlsweep", append([]string{"-spawn", "2", "-bin",
		filepath.Join(t.TempDir(), "no-such-bmlsim"), "-dir", t.TempDir()}, sweepGridArgs...)...)
	for _, want := range []string{"workers failed", "missing cell", "merge incomplete"} {
		if !strings.Contains(out, want) {
			t.Errorf("partial-failure diagnostics missing %q:\n%s", want, out)
		}
	}
}

// runCmdExit runs a command asserting its exact exit code — the bmlsweep
// contract (0 complete, 1 incomplete, 2 usage/IO) is scriptable interface,
// so "any non-zero" is not precise enough.
func runCmdExit(t *testing.T, wantCode int, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(cmdBinary(t, name), args...).CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		code = ee.ExitCode()
	}
	if code != wantCode {
		t.Fatalf("%s %v exited %d, want %d:\n%s", name, args, code, wantCode, out)
	}
	return string(out)
}

// TestCmdBMLSweepExitCodeContract pins the documented exit codes so CI
// jobs can branch on them.
func TestCmdBMLSweepExitCodeContract(t *testing.T) {
	// The contract is printed by -h (exit 0).
	help := runCmdExit(t, 0, "bmlsweep", "-h")
	for _, want := range []string{
		"Exit codes:",
		"0  grid complete",
		"1  grid incomplete",
		"2  usage or I/O error",
	} {
		if !strings.Contains(help, want) {
			t.Errorf("-h output missing %q:\n%s", want, help)
		}
	}

	// Usage errors exit 2.
	runCmdExit(t, 2, "bmlsweep")
	runCmdExit(t, 2, "bmlsweep", "-nonsense")
	runCmdExit(t, 2, "bmlsweep", "-journal", "j.jsonl", "-spawn", "1")
	runCmdExit(t, 2, "bmlsweep", "-resume", "x.jsonl", "-serve", "127.0.0.1:0")
	runCmdExit(t, 2, "bmlsweep", "-wait", "1s", "-spawn", "1")
	// Unreadable input is I/O: exit 2.
	runCmdExit(t, 2, "bmlsweep", append(append([]string{}, sweepGridArgs...),
		filepath.Join(t.TempDir(), "missing.jsonl"))...)

	// An incomplete grid exits 1: one shard's records cannot cover both.
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.jsonl")
	runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "0/2", "-out", s0}, sweepGridArgs...)...)
	out := runCmdExit(t, 1, "bmlsweep", append(append([]string{}, sweepGridArgs...), s0)...)
	if !strings.Contains(out, "missing cell") {
		t.Errorf("incomplete merge diagnostics missing:\n%s", out)
	}

	// A complete merge exits 0.
	s1 := filepath.Join(dir, "s1.jsonl")
	runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "1/2", "-out", s1}, sweepGridArgs...)...)
	runCmdExit(t, 0, "bmlsweep", append(append([]string{}, sweepGridArgs...), s0, s1)...)
}

func TestCmdBMLSimNetworkFlagsRequireSweep(t *testing.T) {
	for _, args := range [][]string{
		{"-sink", "http://127.0.0.1:1"},
		{"-only", "pending.txt"},
		{"-die-after", "1"},
	} {
		out := runCmdErr(t, "bmlsim", args...)
		if !strings.Contains(out, "requires -sweep") {
			t.Errorf("bmlsim %v: missing requires-sweep rejection:\n%s", args, out)
		}
	}
	// A malformed sink URL dies before any simulation work.
	out := runCmdErr(t, "bmlsim", "-sweep", "-sink", "not-a-url", "-days", "1")
	if !strings.Contains(out, "sink URL") {
		t.Errorf("bad sink URL not rejected up front:\n%s", out)
	}
}

// cmdTestGrid re-enumerates, in-process, exactly the grid the cmd-level
// sweep tests run via sweepGridArgs (1 generated day, default peak/seed,
// 10-minute plateaus, fleets 0,50) — what lets the network e2e test
// compare binaries against an in-process SweepStream.
func cmdTestGrid(t *testing.T) []sim.SweepJob {
	t.Helper()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 1
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.Quantize(600); err != nil {
		t.Fatal(err)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sim.Grid([]sim.TraceAxis{{Trace: tr}}, planner, nil, []int{0, 50})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestCmdSweepServeKillResume is the end-to-end acceptance path with real
// processes: a bmlsweep ingest coordinator, one worker killed mid-grid by
// fault injection, a second worker completing its shard, a re-dispatch of
// exactly the coordinator's pending set, and the final report — asserting
// the journal-merged grid is cell-for-cell equal to an in-process
// SweepStream (≤1e-6 J, exact counters) and the serve process honors the
// exit-code contract.
func TestCmdSweepServeKillResume(t *testing.T) {
	jobs := cmdTestGrid(t)
	want := make(map[string]sim.CellRecord, len(jobs))
	err := sim.SweepStream(jobs, 0, func(r sim.SweepResult) error {
		if r.Err != nil {
			return fmt.Errorf("in-process sweep cell %s: %w", r.Job.Name, r.Err)
		}
		rec := sim.NewCellRecord(r)
		want[rec.ID] = rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the worker whose shard holds >= 2 cells, so death is mid-shard.
	killShard := "0/2"
	if s0, err := sim.ShardJobs(jobs, sim.ShardSpec{Index: 0, Count: 2}); err != nil {
		t.Fatal(err)
	} else if len(s0) < 2 {
		killShard = "1/2"
	}
	otherShard := map[string]string{"0/2": "1/2", "1/2": "0/2"}[killShard]

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	serve := exec.Command(cmdBinary(t, "bmlsweep"),
		append([]string{"-serve", "127.0.0.1:0", "-journal", journal, "-wait", "120s"}, sweepGridArgs...)...)
	stderr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var serveOut strings.Builder
	serve.Stdout = &serveOut
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()

	// The coordinator logs its bound address (port 0 = ephemeral).
	var baseURL string
	var serveLog strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		serveLog.WriteString(line + "\n")
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			baseURL = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("coordinator never announced its address:\n%s", serveLog.String())
	}
	// Keep draining stderr so the coordinator never blocks on the pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	// Worker A dies after one cell (exit 3, the fault-injection code);
	// its completed cell is already durable on the coordinator.
	out, err := exec.Command(cmdBinary(t, "bmlsim"),
		append([]string{"-sweep", "-shard", killShard, "-sink", baseURL, "-die-after", "1"}, sweepGridArgs...)...).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("fault-injected worker: err %v, want exit 3:\n%s", err, out)
	}
	// Worker B completes its shard.
	runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", otherShard, "-sink", baseURL}, sweepGridArgs...)...)

	// The grid is incomplete; /v1/pending names the dead worker's cells.
	resp, err := http.Get(baseURL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	status := readBody(t, resp)
	if !strings.Contains(status, `"complete":false`) {
		t.Fatalf("status after kill should be incomplete: %s", status)
	}
	resp, err = http.Get(baseURL + "/v1/pending")
	if err != nil {
		t.Fatal(err)
	}
	pendingTxt := readBody(t, resp)
	pendingIDs := strings.Fields(pendingTxt)
	if len(pendingIDs) == 0 {
		t.Fatal("pending set empty after killed worker")
	}
	pendingFile := filepath.Join(dir, "pending.txt")
	if err := os.WriteFile(pendingFile, []byte(pendingTxt), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: re-dispatch exactly the pending cells.
	runCmd(t, "bmlsim", append([]string{"-sweep", "-only", pendingFile, "-sink", baseURL}, sweepGridArgs...)...)

	// The coordinator sees the grid complete and exits 0 with the report.
	done := make(chan error, 1)
	go func() { done <- serve.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v (want 0):\n%s", err, serveLog.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not exit after the grid completed")
	}
	if !strings.Contains(serveOut.String(), fmt.Sprintf("%d cells", len(jobs))) {
		t.Errorf("serve report missing the full grid:\n%s", serveOut.String())
	}

	// Differential: the journal's records, merged, equal the in-process
	// sweep cell-for-cell.
	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	records, err := sim.ReadCellRecords(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	merged, stats, err := sim.MergeCells(jobs, records)
	if err != nil {
		t.Fatalf("journal merge: %v (stats %+v)", err, stats)
	}
	for _, got := range merged {
		w, ok := want[got.ID]
		if !ok {
			t.Fatalf("journal cell %s not in the in-process grid", got.ID)
		}
		if math.Abs(got.TotalJ-w.TotalJ) > 1e-6 {
			t.Errorf("%s: TotalJ %v vs %v", got.ID, got.TotalJ, w.TotalJ)
		}
		if got.Decisions != w.Decisions || got.SwitchOns != w.SwitchOns || got.SwitchOffs != w.SwitchOffs {
			t.Errorf("%s: counters (%d,%d,%d) vs (%d,%d,%d)", got.ID,
				got.Decisions, got.SwitchOns, got.SwitchOffs, w.Decisions, w.SwitchOns, w.SwitchOffs)
		}
	}

	// A journal-only resume is now a no-op merge: exit 0, full report,
	// nothing re-dispatched.
	out2 := runCmdExit(t, 0, "bmlsweep", append([]string{"-resume", journal}, sweepGridArgs...)...)
	if !strings.Contains(out2, fmt.Sprintf("%d cells", len(jobs))) || strings.Contains(out2, "re-dispatching") {
		t.Errorf("journal-only resume wrong:\n%s", out2)
	}
}

// TestCmdBMLSweepResumeRepairsTruncatedJournal covers the coordinator
// dying mid-append: the partial final line is dropped and repaired, its
// cell is re-dispatched, and the journal converges to a complete,
// parsable record set.
func TestCmdBMLSweepResumeRepairsTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	all := filepath.Join(dir, "all.jsonl")
	runCmd(t, "bmlsim", append([]string{"-sweep", "-out", all}, sweepGridArgs...)...)
	raw, err := os.ReadFile(all)
	if err != nil {
		t.Fatal(err)
	}
	// Keep three complete records plus half of the fourth line — what a
	// kill mid-write leaves behind.
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 5 {
		t.Fatalf("worker streamed %d lines, want >= 5", len(lines))
	}
	partial := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	journal := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(journal, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	out := runCmdExit(t, 0, "bmlsweep", append([]string{
		"-resume", journal, "-bin", cmdBinary(t, "bmlsim")}, sweepGridArgs...)...)
	for _, want := range []string{"truncated final line", "re-dispatching", "8 cells"} {
		if !strings.Contains(out, want) {
			t.Errorf("resume output missing %q:\n%s", want, out)
		}
	}

	// The repaired journal parses strictly and covers the grid.
	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	records, err := sim.ReadCellRecords(jf)
	jf.Close()
	if err != nil {
		t.Fatalf("repaired journal unparsable: %v", err)
	}
	if _, stats, err := sim.MergeCells(cmdTestGrid(t), records); err != nil {
		t.Fatalf("repaired journal incomplete: %v (stats %+v)", err, stats)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCmdAblationGridShardAndMerge is the cmd-level ablation-grid path the
// CI job scripts: two trace files (the trace axis), a three-point config
// axis, two shards merged by bmlsweep under the documented exit-code
// contract, with the config axis visible in table and CSV.
func TestCmdAblationGridShardAndMerge(t *testing.T) {
	dir := t.TempDir()
	trA := filepath.Join(dir, "trace-a.txt")
	trB := filepath.Join(dir, "trace-b.txt")
	runCmd(t, "bmltrace", "-days", "1", "-seed", "11", "-out", trA)
	runCmd(t, "bmltrace", "-days", "1", "-seed", "22", "-peak", "3000", "-out", trB)
	gridArgs := []string{"-quantize", "600",
		"-trace", trA, "-trace", trB, "-fleets", "0",
		"-configs", "default,name=h13:headroom=1.3,name=oa:overhead-aware=true"}

	// 2 traces × 1 fleet × (3 bounds + 3 configs) = 12 cells.
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	out := runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "0/2", "-out", s0}, gridArgs...)...)
	if !strings.Contains(out, "of a 12-cell grid") {
		t.Errorf("worker summary missing grid size:\n%s", out)
	}
	runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "1/2", "-out", s1}, gridArgs...)...)

	// Records self-describe the v2 schema and the config axis.
	raw, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		for _, field := range []string{`"schema":2`, `"config_hash":"`, `"id":"`} {
			if !strings.Contains(line, field) {
				t.Errorf("JSONL record missing %s: %s", field, line)
			}
		}
	}

	// One shard alone: exit 1 with the missing cells named.
	out = runCmdExit(t, 1, "bmlsweep", append(append([]string{}, gridArgs...), s0)...)
	if !strings.Contains(out, "missing cell") {
		t.Errorf("incomplete ablation merge diagnostics missing:\n%s", out)
	}
	// A divergent config axis: the shards' records are foreign (exit 1).
	divergent := append([]string{}, gridArgs...)
	divergent[len(divergent)-1] = "default,name=h15:headroom=1.5"
	out = runCmdExit(t, 1, "bmlsweep", append(append([]string{}, divergent...), s0, s1)...)
	if !strings.Contains(out, "foreign record") {
		t.Errorf("divergent -configs not caught as foreign:\n%s", out)
	}
	// Malformed -configs: usage, exit 2.
	runCmdExit(t, 2, "bmlsweep", append([]string{"-configs", "name=:broken"}, s0)...)

	// A v1-schema record set is usage (exit 2), not "incomplete" — no
	// amount of re-dispatching can fix it, matching the journal paths.
	v1 := filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(v1, []byte(strings.ReplaceAll(string(raw), `"schema":2`, `"schema":1`)), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmdExit(t, 2, "bmlsweep", append(append([]string{}, gridArgs...), v1, s1)...)
	if !strings.Contains(out, "schema v1") {
		t.Errorf("v1 merge error does not name the schema:\n%s", out)
	}

	// Both shards: the validated grid, per-config grouping in the table.
	merged := runCmdExit(t, 0, "bmlsweep", append(append([]string{}, gridArgs...), s0, s1)...)
	for _, want := range []string{
		"bml/trace=trace-a.txt/fleet=0/cfg=h13",
		"12 cells",
		"config default:", "config h13:", "config oa:",
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged ablation table missing %q:\n%s", want, merged)
		}
	}

	// And the CSV carries the axis columns.
	csv := runCmdExit(t, 0, "bmlsweep", append(append([]string{"-csv"}, gridArgs...), s0, s1)...)
	if !strings.Contains(csv, "cell,scenario,trace,config,config_hash") ||
		!strings.Contains(csv, ",h13,") || !strings.Contains(csv, "trace-b.txt") {
		t.Errorf("ablation CSV missing axis columns:\n%s", csv)
	}
}

// TestCmdBMLSimConfigsValidation pins the sweep-only flag contract for the
// new axes: -configs outside -sweep is rejected, malformed specs die
// before any simulation, and multiple -trace files are sweep-only.
func TestCmdBMLSimConfigsValidation(t *testing.T) {
	out := runCmdErr(t, "bmlsim", "-configs", "default")
	if !strings.Contains(out, "requires -sweep") {
		t.Errorf("-configs without -sweep not rejected:\n%s", out)
	}
	out = runCmdErr(t, "bmlsim", "-sweep", "-configs", "name=x:headroom=0.5", "-days", "1")
	if !strings.Contains(out, "headroom") {
		t.Errorf("bad config spec not rejected up front:\n%s", out)
	}
	out = runCmdErr(t, "bmlsim", "-trace", "a.txt", "-trace", "b.txt")
	if !strings.Contains(out, "require -sweep") {
		t.Errorf("multiple -trace without -sweep not rejected:\n%s", out)
	}
}

// runCmdStdout runs a command asserting exit 0 and returns stdout alone —
// for byte-comparing reports without interleaved stderr log lines.
func runCmdStdout(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(cmdBinary(t, name), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", name, args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestCmdWarmCacheDifferential is the tentpole acceptance path: an
// ablation grid run cold into a content-addressed cache, then re-run warm
// — the warm pass must execute zero simulation jobs and the merged CSV
// must be byte-identical to the cold run's; a one-config edit must then
// recompute only the edited config's cells.
func TestCmdWarmCacheDifferential(t *testing.T) {
	dir := t.TempDir()
	trA := filepath.Join(dir, "trace-a.txt")
	trB := filepath.Join(dir, "trace-b.txt")
	runCmd(t, "bmltrace", "-days", "1", "-seed", "11", "-out", trA)
	runCmd(t, "bmltrace", "-days", "1", "-seed", "22", "-peak", "3000", "-out", trB)
	gridArgs := []string{"-quantize", "600",
		"-trace", trA, "-trace", trB, "-fleets", "0,50",
		"-configs", "default,name=h13:headroom=1.3,name=oa:overhead-aware=true"}
	cacheDir := filepath.Join(dir, "cells.cache")
	bin := cmdBinary(t, "bmlsim")

	// Cold: 2 traces × 2 fleets × (3 bounds + 3 configs) = 24 cells, all
	// computed, all written back to the cache.
	spawnArgs := func(outDir string) []string {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			t.Fatal(err)
		}
		return append([]string{"-spawn", "2", "-bin", bin, "-dir", outDir, "-cache", cacheDir, "-csv"}, gridArgs...)
	}
	cold := runCmdStdout(t, "bmlsweep", spawnArgs(filepath.Join(dir, "cold"))...)
	if n := strings.Count(cold, "\n"); n != 25 {
		t.Fatalf("cold CSV has %d lines, want 25 (header + 24 cells):\n%s", n, cold)
	}

	// Warm, via the worker directly: every cell served from cache, zero
	// computed — the line the CI warm-pass gate greps.
	out := runCmd(t, "bmlsim", append([]string{"-sweep", "-cache", cacheDir, "-out", filepath.Join(dir, "warm.jsonl")}, gridArgs...)...)
	if !strings.Contains(out, "cache served 24 cells, computed 0") {
		t.Errorf("warm worker pass did not serve everything from cache:\n%s", out)
	}

	// Warm, end to end: byte-identical merged CSV (cached records replay
	// verbatim, wall_ms included), nothing recomputed.
	warm := runCmdStdout(t, "bmlsweep", spawnArgs(filepath.Join(dir, "warm"))...)
	if warm != cold {
		t.Errorf("warm merged CSV differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	// The table view accounts for the hits.
	tableDir := filepath.Join(dir, "warm-table")
	if err := os.MkdirAll(tableDir, 0o755); err != nil {
		t.Fatal(err)
	}
	table := runCmdStdout(t, "bmlsweep", append([]string{"-spawn", "2", "-bin", bin,
		"-dir", tableDir, "-cache", cacheDir}, gridArgs...)...)
	if !strings.Contains(table, "cache: 24 of 24 cells served from cache, 0 computed") {
		t.Errorf("warm table missing cache summary:\n%s", table)
	}

	// Edit one config: only its cells (2 traces × 2 fleets × 1 config = 4)
	// recompute; the bounds and the untouched configs stay cached.
	edited := append([]string{}, gridArgs...)
	edited[len(edited)-1] = "default,name=h13:headroom=1.35,name=oa:overhead-aware=true"
	out = runCmd(t, "bmlsim", append([]string{"-sweep", "-cache", cacheDir, "-out", filepath.Join(dir, "edit.jsonl")}, edited...)...)
	if !strings.Contains(out, "cache served 20 cells, computed 4") {
		t.Errorf("config edit did not recompute exactly the edited config's cells:\n%s", out)
	}
}

// TestCmdBMLSweepDoubleResume pins the resume-journal dedupe contract: a
// journal that already carries a duplicated record resumes cleanly, the
// re-dispatch appends only the genuinely missing cells, and a second
// resume appends nothing at all — repeated replays converge instead of
// folding duplicate successes into the journal.
func TestCmdBMLSweepDoubleResume(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.jsonl")
	runCmd(t, "bmlsim", append([]string{"-sweep", "-shard", "0/2", "-out", s0}, sweepGridArgs...)...)
	raw, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSpace(string(raw))+"\n", "\n")
	// The first record appears twice: what a worker retry can leave behind
	// after an ack lost in flight.
	journal := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(journal, []byte(lines[0]+strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	out := runCmdExit(t, 0, "bmlsweep", append([]string{
		"-resume", journal, "-bin", cmdBinary(t, "bmlsim")}, sweepGridArgs...)...)
	if !strings.Contains(out, "re-dispatching") {
		t.Errorf("first resume did not re-dispatch the missing shard:\n%s", out)
	}
	afterFirst, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	jobs := cmdTestGrid(t)
	records, err := sim.ReadCellRecords(strings.NewReader(string(afterFirst)))
	if err != nil {
		t.Fatalf("journal after resume unparsable: %v", err)
	}
	// The seeded duplicate is still on disk (append-only journal), but the
	// resume added exactly the missing cells — not a second copy of what
	// was already primed.
	if want := len(jobs) + 1; len(records) != want {
		t.Errorf("journal holds %d records after resume, want %d (grid + the seeded duplicate)", len(records), want)
	}
	if _, stats, err := sim.MergeCells(jobs, records); err != nil {
		t.Fatalf("journal after resume does not merge: %v", err)
	} else if stats.Duplicates != 1 {
		t.Errorf("merge saw %d duplicates, want exactly the seeded 1", stats.Duplicates)
	}

	// Second resume: grid already covered — nothing re-dispatched, nothing
	// appended, byte-identical journal.
	out = runCmdExit(t, 0, "bmlsweep", append([]string{"-resume", journal}, sweepGridArgs...)...)
	if strings.Contains(out, "re-dispatching") {
		t.Errorf("second resume re-dispatched a complete grid:\n%s", out)
	}
	afterSecond, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if string(afterSecond) != string(afterFirst) {
		t.Errorf("second resume changed the journal: %d bytes -> %d bytes", len(afterFirst), len(afterSecond))
	}
}

// TestCmdTraceBasenameCollision pins the repeated -trace contract: two
// trace files sharing a base filename would silently collapse to one
// trace-axis name, so both commands must refuse, naming both paths.
func TestCmdTraceBasenameCollision(t *testing.T) {
	pathA := filepath.Join("siteA", "day.txt")
	pathB := filepath.Join("siteB", "day.txt")
	out := runCmdExit(t, 2, "bmlsweep", "-spawn", "1", "-trace", pathA, "-trace", pathB, "-fleets", "0")
	for _, want := range []string{pathA, pathB, `"day.txt"`} {
		if !strings.Contains(out, want) {
			t.Errorf("bmlsweep collision error missing %q:\n%s", want, out)
		}
	}
	out = runCmdErr(t, "bmlsim", "-sweep", "-trace", pathA, "-trace", pathB)
	for _, want := range []string{pathA, pathB, `"day.txt"`} {
		if !strings.Contains(out, want) {
			t.Errorf("bmlsim collision error missing %q:\n%s", want, out)
		}
	}
}

func TestCmdBMLSimAblationFlags(t *testing.T) {
	out := runCmd(t, "bmlsim", "-days", "2", "-first", "1", "-last", "2",
		"-overhead-aware", "-predictor", "pattern", "-critical")
	if !strings.Contains(out, "skipped") {
		t.Errorf("overhead-aware summary missing:\n%s", out)
	}
}

// TestCmdBMLSimPredictorWindowMatchesSweep pins that a classic run and a
// one-config sweep cell size the predictor window the same way (the
// scheduler's sched.Window, which rounds up): at a window factor whose
// window is fractional, the same predictor knobs must report the same
// decisions and switch-ons on both paths.
func TestCmdBMLSimPredictorWindowMatchesSweep(t *testing.T) {
	classic := runCmd(t, "bmlsim", "-days", "3", "-first", "1", "-last", "3",
		"-predictor", "pattern", "-window-factor", "1.5")
	var decisions, switchOns int
	for _, line := range strings.Split(classic, "\n") {
		if strings.HasPrefix(line, "scheduler: ") {
			if _, err := fmt.Sscanf(line, "scheduler: %d decisions, %d switch-ons", &decisions, &switchOns); err != nil {
				t.Fatalf("unparsable scheduler line %q: %v", line, err)
			}
		}
	}
	if decisions == 0 {
		t.Fatalf("classic run printed no scheduler line:\n%s", classic)
	}
	recs, err := sim.ReadCellRecords(strings.NewReader(runCmdStdout(t, "bmlsim", "-sweep", "-days", "3",
		"-configs", "name=p:predictor=pattern:window-factor=1.5")))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range recs {
		if rec.Scenario != string(sim.ScenarioBML) {
			continue
		}
		found = true
		if rec.Decisions != decisions || rec.SwitchOns != switchOns {
			t.Errorf("classic run: %d decisions, %d switch-ons; sweep cell %s: %d decisions, %d switch-ons",
				decisions, switchOns, rec.Name, rec.Decisions, rec.SwitchOns)
		}
	}
	if !found {
		t.Fatal("sweep emitted no BML cell")
	}
}

// TestCmdBMLPaper drives the paper pipeline end to end: a two-experiment
// spec run cold into a shared cache (the second experiment's bound cells
// already come from the first's write-back), then a warm re-run that
// computes zero cells while reproducing the summary artifacts byte for
// byte — plus the exit-2 contract for invalid specs and flags.
func TestCmdBMLPaper(t *testing.T) {
	dir := t.TempDir()
	trA := filepath.Join(dir, "trace-a.txt")
	runCmd(t, "bmltrace", "-days", "1", "-seed", "11", "-out", trA)
	spec := filepath.Join(dir, "experiments.json")
	specJSON := fmt.Sprintf(`{
  "experiments": [
    {"name": "ablation", "traces": [%q], "quantize": 600, "fleets": [0, 50],
     "configs": "default,name=h13:headroom=1.3"},
    {"name": "faults", "traces": [%q], "quantize": 600,
     "configs": "name=flaky:boot-fault=0.25:fault-seed=7", "repeats": 2, "seed": 1}
  ]
}`, trA, trA)
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cells.cache")
	out := filepath.Join(dir, "paper_runs")

	// The exit-code contract is printed by -h.
	help := runCmdExit(t, 0, "bmlpaper", "-h")
	for _, want := range []string{"Exit codes:", "0  every experiment complete", "1  one or more experiments incomplete", "2  usage, spec-validation, or I/O error"} {
		if !strings.Contains(help, want) {
			t.Errorf("-h output missing %q:\n%s", want, help)
		}
	}

	// Usage and spec errors exit 2.
	runCmdExit(t, 2, "bmlpaper")
	runCmdExit(t, 2, "bmlpaper", "-spec", filepath.Join(dir, "nope.json"))
	runCmdExit(t, 2, "bmlpaper", "-spec", spec, "-only", "no-such-experiment")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"experiments": [{"name": "x", "repeets": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badOut := runCmdExit(t, 2, "bmlpaper", "-spec", bad)
	if !strings.Contains(badOut, "repeets") {
		t.Errorf("typoed spec key not named:\n%s", badOut)
	}

	// -validate checks the spec without running anything.
	vout := runCmdExit(t, 0, "bmlpaper", "-spec", spec, "-validate")
	if !strings.Contains(vout, "2 experiment(s) valid") || !strings.Contains(vout, "faults") {
		t.Errorf("-validate summary wrong:\n%s", vout)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-validate created the run directory: %v", err)
	}

	// Cold run: ablation computes all 10 cells; faults (same trace, fleet 0)
	// reuses the 3 bound cells ablation wrote back and computes its 2 repeats.
	cold := runCmdExit(t, 0, "bmlpaper", "-spec", spec, "-out", out, "-stamp", "cold", "-cache", cacheDir)
	for _, want := range []string{
		"experiment ablation: 10 cells (cache served 0, computed 10)",
		"experiment faults: 5 cells (cache served 3, computed 2)",
		"run complete",
	} {
		if !strings.Contains(cold, want) {
			t.Errorf("cold run missing %q:\n%s", want, cold)
		}
	}
	for _, exp := range []string{"ablation", "faults"} {
		for _, name := range []string{"cells.jsonl", "cells.csv", "summary.csv", "table.txt", "table.tex", "plot_total_kwh.txt"} {
			path := filepath.Join(out, "cold", exp, name)
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("cold artifact %s/%s missing or empty: %v", exp, name, err)
			}
		}
	}

	// Warm run: zero computed everywhere, byte-identical summaries.
	warm := runCmdExit(t, 0, "bmlpaper", "-spec", spec, "-out", out, "-stamp", "warm", "-cache", cacheDir)
	for _, want := range []string{
		"experiment ablation: 10 cells (cache served 10, computed 0)",
		"experiment faults: 5 cells (cache served 5, computed 0)",
	} {
		if !strings.Contains(warm, want) {
			t.Errorf("warm run missing %q:\n%s", want, warm)
		}
	}
	for _, exp := range []string{"ablation", "faults"} {
		for _, name := range []string{"summary.csv", "table.txt", "table.tex", "plot_total_kwh.txt"} {
			a, err := os.ReadFile(filepath.Join(out, "cold", exp, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(out, "warm", exp, name))
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("%s/%s differs between cold and warm runs:\n--- cold ---\n%s--- warm ---\n%s", exp, name, a, b)
			}
		}
	}

	// -only runs a subset against the same cache.
	only := runCmdExit(t, 0, "bmlpaper", "-spec", spec, "-only", "faults", "-out", out, "-stamp", "only", "-cache", cacheDir)
	if strings.Contains(only, "experiment ablation") || !strings.Contains(only, "experiment faults: 5 cells (cache served 5, computed 0)") {
		t.Errorf("-only run wrong:\n%s", only)
	}
}

// fleetLog is a mutex-guarded line sink: the coordinator's stderr is
// drained by a goroutine while the test asserts on supervisor lines.
type fleetLog struct {
	mu sync.Mutex
	sb strings.Builder
}

func (l *fleetLog) add(line string) {
	l.mu.Lock()
	l.sb.WriteString(line + "\n")
	l.mu.Unlock()
}

func (l *fleetLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.String()
}

// startCoordinator launches a bmlsweep fleet coordinator on an ephemeral
// port, waits for the announced base URL, and keeps draining stderr into
// the returned log. The returned wait func asserts a clean exit 0 — the
// every-hosted-run-complete leg of the exit-code contract.
func startCoordinator(t *testing.T, args ...string) (baseURL string, logBuf *fleetLog, stdout *strings.Builder, wait func()) {
	t.Helper()
	cmd := exec.Command(cmdBinary(t, "bmlsweep"), append([]string{"-serve", "127.0.0.1:0"}, args...)...)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout = &strings.Builder{}
	cmd.Stdout = stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	logBuf = &fleetLog{}
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		line := sc.Text()
		logBuf.add(line)
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			baseURL = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("coordinator never announced its address:\n%s", logBuf.String())
	}
	go func() {
		for sc.Scan() {
			logBuf.add(sc.Text())
		}
	}()
	wait = func() {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("coordinator exited with %v (want 0):\n%s", err, logBuf.String())
			}
		case <-time.After(120 * time.Second):
			t.Fatal("coordinator did not exit after every hosted run completed")
		}
	}
	return baseURL, logBuf, stdout, wait
}

// httpGet issues a GET with an optional bearer token.
func httpGet(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCmdFleetMultiRunAuthRegisterClaim is the multi-tenant acceptance
// path with real processes: one coordinator hosts its local grid as a
// named run behind a global bearer token, a second run is registered
// remotely from cell IDs alone with its own per-run token, claim workers
// complete both runs concurrently-hosted, and the coordinator exits 0
// with per-run journals isolated under -journal-dir.
func TestCmdFleetMultiRunAuthRegisterClaim(t *testing.T) {
	dir := t.TempDir()
	journals := filepath.Join(dir, "journals")
	token := "fleet-secret"
	runBGrid := []string{"-days", "1", "-quantize", "600", "-fleets", "25"}

	baseURL, slog, stdout, wait := startCoordinator(t,
		append([]string{"-run", "alpha", "-journal", filepath.Join(dir, "alpha.jsonl"),
			"-journal-dir", journals, "-token", token, "-wait", "180s"}, sweepGridArgs...)...)

	// Every route is guarded: unauthenticated probes get 401 (with a
	// challenge, no run names leaked); the token opens /v2 and /v1 alike.
	resp := httpGet(t, baseURL+"/v2/runs", "")
	readBody(t, resp)
	if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("unauthenticated /v2/runs: %s", resp.Status)
	}
	resp = httpGet(t, baseURL+"/v2/runs", token)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"alpha"`) {
		t.Fatalf("authenticated /v2/runs: %s: %s", resp.Status, body)
	}
	resp = httpGet(t, baseURL+"/v1/status", "")
	readBody(t, resp)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/status: %s, want 401", resp.Status)
	}
	resp = httpGet(t, baseURL+"/v1/status", token)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"complete":false`) {
		t.Fatalf("authenticated /v1/status: %s: %s", resp.Status, body)
	}

	// Remote run creation needs the token (exit 2 without it) and only the
	// grid flags — the coordinator never sees run beta's trace files.
	out := runCmdExit(t, 2, "bmlsweep",
		append([]string{"-register", baseURL, "-run", "beta", "-token", "wrong"}, runBGrid...)...)
	if !strings.Contains(out, "rejected") {
		t.Errorf("bad-token register not rejected:\n%s", out)
	}
	out = runCmdExit(t, 0, "bmlsweep", append([]string{"-register", baseURL, "-run", "beta",
		"-token", token, "-run-token", "beta-secret"}, runBGrid...)...)
	if !strings.Contains(out, "registered") {
		t.Errorf("register summary missing:\n%s", out)
	}

	// Claim workers complete both runs: alpha under the global token, beta
	// under its per-run token.
	out = runCmd(t, "bmlsim", append([]string{"-sweep", "-sink", baseURL, "-run", "alpha",
		"-claim", "4", "-token", token}, sweepGridArgs...)...)
	if !strings.Contains(out, "run alpha complete after streaming 8 cells of a 8-cell grid") {
		t.Errorf("alpha claim worker summary missing:\n%s", out)
	}
	out = runCmd(t, "bmlsim", append([]string{"-sweep", "-sink", baseURL, "-run", "beta",
		"-claim", "4", "-token", "beta-secret"}, runBGrid...)...)
	if !strings.Contains(out, "run beta complete after streaming 4 cells of a 4-cell grid") {
		t.Errorf("beta claim worker summary missing:\n%s", out)
	}

	wait()
	if !strings.Contains(stdout.String(), "8 cells") {
		t.Errorf("coordinator report missing the default run's grid:\n%s", stdout.String())
	}
	if !strings.Contains(slog.String(), "run beta: 4/4 cells received (0 pending, 0 failed) — complete") {
		t.Errorf("fleet status missing run beta:\n%s", slog.String())
	}

	// Journal isolation: beta journals under -journal-dir, alpha under its
	// own -journal path, and each resumes independently with nothing to
	// re-dispatch.
	if _, err := os.Stat(filepath.Join(journals, "alpha.jsonl")); !os.IsNotExist(err) {
		t.Errorf("default run leaked a journal into -journal-dir: %v", err)
	}
	out = runCmdExit(t, 0, "bmlsweep",
		append([]string{"-resume", filepath.Join(journals, "beta.jsonl")}, runBGrid...)...)
	if !strings.Contains(out, "4 cells") || strings.Contains(out, "re-dispatching") {
		t.Errorf("beta journal resume wrong:\n%s", out)
	}
	out = runCmdExit(t, 0, "bmlsweep",
		append([]string{"-resume", filepath.Join(dir, "alpha.jsonl")}, sweepGridArgs...)...)
	if !strings.Contains(out, "8 cells") || strings.Contains(out, "re-dispatching") {
		t.Errorf("alpha journal resume wrong:\n%s", out)
	}
}

// TestCmdFleetStalledWorkerLeaseRedispatch pins the fix for a stalled
// (hung, not dead) worker holding the grid open forever: the worker
// claims the whole grid under a short lease, streams one cell, then hangs
// alive with its leases held — no connection ever errors — and the
// coordinator's lease supervisor must expire the leases, reclaim the
// cells, re-dispatch them to a local worker, and exit 0 with the full
// report.
func TestCmdFleetStalledWorkerLeaseRedispatch(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	baseURL, slog, stdout, wait := startCoordinator(t,
		append([]string{"-journal", journal, "-lease-ttl", "1s", "-wait", "180s",
			"-bin", cmdBinary(t, "bmlsim")}, sweepGridArgs...)...)

	stalled := exec.Command(cmdBinary(t, "bmlsim"),
		append([]string{"-sweep", "-sink", baseURL, "-claim", "8", "-stall-after", "1"}, sweepGridArgs...)...)
	var stalledOut strings.Builder
	stalled.Stdout = &stalledOut
	stalled.Stderr = &stalledOut
	if err := stalled.Start(); err != nil {
		t.Fatal(err)
	}
	defer stalled.Process.Kill()

	wait()
	for _, want := range []string{
		"reclaimed 7 cells from stalled worker",
		"re-dispatching 7 reclaimed cells",
	} {
		if !strings.Contains(slog.String(), want) {
			t.Errorf("lease supervisor log missing %q:\n%s", want, slog.String())
		}
	}
	if !strings.Contains(stdout.String(), "8 cells") {
		t.Errorf("coordinator report missing the full grid:\n%s", stdout.String())
	}

	// The stalled process is still alive (leases held, select{}); reap it
	// and confirm it really was the stall fault injection.
	stalled.Process.Kill()
	stalled.Wait()
	if !strings.Contains(stalledOut.String(), "fault injection: stalling after 1 streamed cells") {
		t.Errorf("stalled worker did not report the stall:\n%s", stalledOut.String())
	}

	// The journal the supervisor converged merges to the complete grid.
	out := runCmdExit(t, 0, "bmlsweep", append([]string{"-resume", journal}, sweepGridArgs...)...)
	if !strings.Contains(out, "8 cells") || strings.Contains(out, "re-dispatching") {
		t.Errorf("post-reclaim journal resume wrong:\n%s", out)
	}
}

// TestCmdClaimWithoutRunReachesDefaultRun is the binary-level regression
// test for a claim worker that names no run: against a token-guarded
// coordinator whose default run is called alpha, it leases through
// /v1/lease and posts through /v1/cells, and both the worker and the
// coordinator exit 0 with the grid complete.
func TestCmdClaimWithoutRunReachesDefaultRun(t *testing.T) {
	token := "fleet-secret"
	baseURL, _, stdout, wait := startCoordinator(t,
		append([]string{"-run", "alpha", "-token", token, "-wait", "120s"}, sweepGridArgs...)...)
	out := runCmd(t, "bmlsim", append([]string{"-sweep", "-sink", baseURL, "-claim", "2", "-token", token}, sweepGridArgs...)...)
	if !strings.Contains(out, "complete after streaming 8 cells of a 8-cell grid") {
		t.Errorf("claim worker summary missing:\n%s", out)
	}
	wait()
	if !strings.Contains(stdout.String(), "8 cells") {
		t.Errorf("coordinator report missing the grid:\n%s", stdout.String())
	}
}

// TestCmdTwoClaimWorkersExitZero: two claim workers sharing the
// coordinator's only run both exit 0 with the coordinator, although only
// one of them streams the run's final cell. The other is asleep on an
// answer with no cells, or claims again after its last batch; the
// coordinator keeps answering until each has been told the run is
// complete, instead of closing its listener under them.
func TestCmdTwoClaimWorkersExitZero(t *testing.T) {
	baseURL, _, stdout, wait := startCoordinator(t,
		append([]string{"-run", "alpha", "-wait", "120s"}, sweepGridArgs...)...)
	workers := make([]*exec.Cmd, 2)
	outs := make([]strings.Builder, 2)
	for i := range workers {
		workers[i] = exec.Command(cmdBinary(t, "bmlsim"),
			append([]string{"-sweep", "-sink", baseURL, "-claim", "2"}, sweepGridArgs...)...)
		workers[i].Stdout, workers[i].Stderr = &outs[i], &outs[i]
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("claim worker %d exited with %v (want 0):\n%s", i, err, outs[i].String())
		}
	}
	wait()
	if !strings.Contains(stdout.String(), "8 cells") {
		t.Errorf("coordinator report missing the grid:\n%s", stdout.String())
	}
}

// TestCmdFleetFlagValidation pins the new flags' usage contract: claim
// mode's preconditions on the worker, and the coordinator's fleet flags
// rejecting modes they do not belong to (exit 2).
func TestCmdFleetFlagValidation(t *testing.T) {
	out := runCmdErr(t, "bmlsim", "-claim", "2")
	if !strings.Contains(out, "requires -sweep") {
		t.Errorf("-claim without -sweep not rejected:\n%s", out)
	}
	out = runCmdErr(t, "bmlsim", "-sweep", "-claim", "2", "-days", "1")
	if !strings.Contains(out, "requires -sink") {
		t.Errorf("-claim without -sink not rejected:\n%s", out)
	}
	out = runCmdErr(t, "bmlsim", "-sweep", "-sink", "http://127.0.0.1:1", "-claim", "2", "-shard", "0/2", "-days", "1")
	if !strings.Contains(out, "conflicts") {
		t.Errorf("-claim with -shard not rejected:\n%s", out)
	}
	out = runCmdErr(t, "bmlsim", "-sweep", "-die-after", "1", "-stall-after", "1", "-days", "1")
	if !strings.Contains(out, "one fault injection") {
		t.Errorf("double fault injection not rejected:\n%s", out)
	}

	runCmdExit(t, 2, "bmlsweep", "-run-token", "x", "-spawn", "1")
	runCmdExit(t, 2, "bmlsweep", "-tls-cert", "c.pem", "-serve", "127.0.0.1:0")
	runCmdExit(t, 2, "bmlsweep", "-journal-dir", "x", "-spawn", "1")
	runCmdExit(t, 2, "bmlsweep", "-register", "http://127.0.0.1:1/", "-spawn", "1")
	runCmdExit(t, 2, "bmlsweep", "-lease-ttl", "0s", "-serve", "127.0.0.1:0")
}

// TestCmdBMLSweepServeBadTLSCertExits pins that a coordinator whose
// -tls-cert cannot be loaded fails like a failed bind — exit 2, promptly,
// before announcing an https address it could never serve — rather than
// logging "listening" and hanging.
func TestCmdBMLSweepServeBadTLSCertExits(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-serve", "127.0.0.1:0",
		"-tls-cert", filepath.Join(dir, "missing-cert.pem"),
		"-tls-key", filepath.Join(dir, "missing-key.pem")}, sweepGridArgs...)
	cmd := exec.Command(cmdBinary(t, "bmlsweep"), args...)
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("bmlsweep with a missing -tls-cert exited with %v, want exit 2:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("bmlsweep with a missing -tls-cert did not exit:\n%s", out.String())
	}
	if strings.Contains(out.String(), "listening on") {
		t.Errorf("coordinator announced an address before its certificate loaded:\n%s", out.String())
	}
}
