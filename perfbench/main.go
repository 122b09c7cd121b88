// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public Go API of internal/{trace,bml,sim,
// paper,wc98}, checks the outputs against the workload's correctness
// oracle, and prints the metrics named in BENCHMARK.json at the repository
// root, taking medians over repeated passes. With -trace 1 it makes a
// separate traced pass instead and reports per-layer numbers, timed from
// the benchmark's own calls into each layer, plus a "where time goes"
// table. See README.md in this directory.
//
//	go run . -workload fig5-raw -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median, so one slow file-system call does not move it.
const setupRepeats = 5

// minPasses is the fewest timed passes a run makes, however long each takes.
const minPasses = 3

// rssEvery is how often a pass samples its resident set size.
const rssEvery = 2 * time.Millisecond

type metric struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"simsec_per_s", "sim-s/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// a workload does not exercise reads 0 there.
var perLayer = []metric{
	{"trace.generate_s", "s"},
	{"predict.lookahead_s", "s"},
	{"bml.table_s", "s"},
	{"bml.table_alloc_mb", "MB"},
	{"bml.exact_s", "s"},
	{"bml.exact_alloc_mb", "MB"},
	{"sim.rig_s", "s"},
	{"sim.rig_calls", "count"},
	{"sim.bml_s", "s"},
	{"sim.ub_global_s", "s"},
	{"sim.ub_perday_s", "s"},
	{"sim.lowerbound_s", "s"},
	{"sim.bml_alloc_mb", "MB"},
	{"sim.bml_engine_s", "s"},
	{"sim.decisions", "count"},
	{"sim.switch_ons", "count"},
	{"stream.cell_wall_ms_p50", "ms"},
	{"stream.encode_us", "us"},
	{"stream.decode_us", "us"},
	{"stream.merge_s", "s"},
	{"cache.put_us", "us"},
	{"cache.get_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"ingest.add_us", "us"},
	{"ingest.add_nojournal_us", "us"},
	{"journal.sync_us", "us"},
	{"ingest.dups", "count"},
	{"ingest.unknown", "count"},
	{"ingest.failed", "count"},
	{"fleet.claims", "count"},
	{"fleet.claim_yield", "cells/claim"},
	{"fleet.claim_ms_p50", "ms"},
	{"sink.post_ms_p99", "ms"},
	{"post_p50_ms", "ms"},
	{"post_p90_ms", "ms"},
	{"post_samples", "count"},
	{"warm_cells_per_s", "cells/s"},
	{"paper.group_s", "s"},
	{"paper.summary_s", "s"},
	{"report.sweep_csv_s", "s"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"error_rate", "ratio"},
	{"tracing.wall_s", "s"},
	{"tracing.overhead_s", "s"},
}

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// workers is the load concurrency, sweep and claim workers alike:
	// always nproc, so load generators never outnumber the CPUs and
	// measure the scheduler's time slicing instead of the program.
	workers int
	work    string    // scratch directory, removed when the run ends
	log     io.Writer // human-readable report lines
}

// outcome is what a workload measured.
type outcome struct {
	setups  []float64          // seconds per set-up repetition
	metrics map[string]float64 // end-to-end values (untraced passes)
	layers  map[string]float64 // per-layer values (traced runs only)
	tally   tally
	checks  []string // failed correctness checks, empty when correct
	spans   []span
	wall    time.Duration // traced section wall, for the table
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, layers: map[string]float64{}}
}

// failCheck records a correctness failure; wrong counts the cells whose
// output it makes wrong.
func (o *outcome) failCheck(wrong int, format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
	o.tally.wrongResults += wrong
}

var workloads = map[string]func(*env) (*outcome, error){
	"fig5-raw":    fig5Raw,
	"paper-grid":  paperGrid,
	"fleet-claim": fleetClaim,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	nproc := runtime.NumCPU()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig5-raw | paper-grid | fleet-claim")
	seed := fs.Int64("seed", 1, "workload seed: trace seeds and the repeat base seed derive from it")
	seconds := fs.Int("seconds", 10, "how long the timed passes run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(nproc)

	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": nproc,
		"workers": nproc, "cpu": cpuModel(),
	}
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "stamp %s\n", b)

	err := os.MkdirAll(".bench_build", 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(".bench_build", "work-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1,
		workers: nproc, work: work, log: stdout}
	out, err := wl(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out.metrics["setup_s"] = median(out.setups)

	want, got := endToEnd, out.metrics
	if e.traced {
		want, got = perLayer, out.layers
		out.layers["error_rate"] = out.tally.errorRate()
		out.layerDefaults()
		if err := writeSpans(*name, *seed, out.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rows, uncovered := whereTimeGoes(out.spans, out.wall)
		printWhereTimeGoes(stdout, *name, rows, out.wall, uncovered)
	}
	res := result{
		Correct:   len(out.checks) == 0 && out.tally.failed() == 0,
		Attempted: out.tally.attempted(),
		Failed:    out.tally.failed(),
		Metrics:   map[string]value{},
	}
	for _, c := range out.checks {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", c)
	}
	fmt.Fprintf(stdout, "setup_s samples: %v\n", out.setups)
	fmt.Fprintf(stdout, "error_rate %.6g (%d failed of %d attempted: %d failed cells, %d failed HTTP calls, %d wrong results)\n",
		out.tally.errorRate(), out.tally.failed(), out.tally.attempted(),
		out.tally.failedCells, out.tally.failedHTTP, out.tally.wrongResults)
	for _, m := range want {
		v, ok := got[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", *name, m.name)
			return 1
		}
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	b, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// writeSpans writes a traced run's spans as JSON lines, one per span, to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
func writeSpans(workload string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	runID := fmt.Sprintf("%s-seed%d-%d", workload, seed, os.Getpid())
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"run": runID, "id": s.ID, "parent": s.Parent, "name": s.Name,
			"start_us": s.Start.Microseconds(), "end_us": s.End.Microseconds(), "alloc_bytes": s.Alloc,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel names the processor for the result stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// statm reads the resident set size from /proc/self/statm into a fixed
// buffer, so sampling it allocates nothing that alloc_mb would count.
type statm struct {
	f   *os.File
	buf [256]byte
}

func openStatm() (*statm, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	return &statm{f: f}, nil
}

// rssMB returns the current resident set size: the second field.
func (s *statm) rssMB() (float64, error) {
	n, err := s.f.ReadAt(s.buf[:], 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	var field [2]int64
	k, digits := 0, false
	for _, c := range s.buf[:n] {
		if c >= '0' && c <= '9' {
			field[k] = 10*field[k] + int64(c-'0')
			digits = true
			continue
		}
		if digits {
			if k++; k == len(field) {
				return float64(field[1]*int64(os.Getpagesize())) / (1 << 20), nil
			}
			digits = false
		}
	}
	return 0, fmt.Errorf("/proc/self/statm: %q: want size and resident", s.buf[:n])
}

// sampleRSS samples the resident set size every rssEvery until the
// returned stop is called, and stop returns the largest sample in MB.
// Per-pass peaks are steadier than the process's one high-water mark,
// which records the single worst alignment of allocations and collections.
// All its allocation happens before it returns and after stop returns.
func sampleRSS() (stop func() (float64, error), err error) {
	sm, err := openStatm()
	if err != nil {
		return nil, err
	}
	quit := make(chan struct{})
	type result struct {
		peak float64
		err  error
	}
	done := make(chan result, 1)
	tick := time.NewTicker(rssEvery)
	go func() {
		var r result
		for {
			mb, err := sm.rssMB()
			if err != nil {
				done <- result{err: err}
				return
			}
			r.peak = max(r.peak, mb)
			select {
			case <-quit:
				done <- r
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(quit)
		r := <-done
		tick.Stop()
		if err := sm.f.Close(); r.err == nil {
			r.err = err
		}
		return r.peak, r.err
	}, nil
}

// setup runs f setupRepeats times after a collection each, so garbage
// from the previous repetition neither inflates nor is charged to the
// next, and returns each repetition's wall time in seconds.
func setup(f func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC()
	return secs, nil
}

// sample is what one timed pass measured.
type sample struct {
	wall           time.Duration
	allocMB, rssMB float64
}

// measure runs f, the timed part of a pass, and returns the wall f
// reports together with the heap MB allocated and the peak resident MB
// while f ran. A pass does its set-up and correctness checks outside f, so
// they count in none of the three. f reports its own wall because it may
// time less than all of itself: fleet-claim stops its wall when the run
// completes, before its workers have exited.
func measure(f func() (time.Duration, error)) (sample, error) {
	stop, err := sampleRSS()
	if err != nil {
		return sample{}, err
	}
	a0 := allocBytes()
	wall, err := f()
	a1 := allocBytes()
	peak, rerr := stop()
	if err == nil {
		err = rerr
	}
	return sample{wall: wall, allocMB: float64(a1-a0) / (1 << 20), rssMB: peak}, err
}

// passes calls pass until the run's time is spent (at least minPasses
// times) and collects what each pass's measure call returned.
func passes(e *env, pass func(i int) (sample, error)) (p passStats, err error) {
	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		if total1 > total0 {
			p.steal = float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < e.seconds; i++ {
		s, err := pass(i)
		if err != nil {
			return p, err
		}
		p.walls = append(p.walls, s.wall.Seconds())
		p.allocMB = append(p.allocMB, s.allocMB)
		p.rssMB = append(p.rssMB, s.rssMB)
	}
	return p, nil
}

// passStats holds one value per timed pass, and the share of the host's
// CPU time the hypervisor stole while the passes ran.
type passStats struct {
	walls, allocMB, rssMB []float64
	steal                 float64
}

// cpuTicks reads the machine's stolen and total CPU ticks from
// /proc/stat, or zeros where it is unreadable. Steal is time a virtual
// CPU was ready but another guest ran: it slows every timed pass alike,
// so it is printed beside the times to explain slow runs.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// gcStats returns the completed GC cycles and total pause time so far.
func gcStats() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// recordPasses stores the metrics every workload derives the same way
// from its untraced passes, and prints the pass walls' quartiles.
func (o *outcome) recordPasses(log io.Writer, p passStats, cellsPerPass, simsecPerPass float64) {
	w := median(p.walls)
	q1, q3 := quartiles(p.walls)
	fmt.Fprintf(log, "timed pass wall: median %.4f s, quartiles %.4f–%.4f s, %d passes; host CPU steal %.1f%%\n",
		w, q1, q3, len(p.walls), 100*p.steal)
	o.metrics["cells_per_s"] = cellsPerPass / w
	o.metrics["simsec_per_s"] = simsecPerPass / w
	o.metrics["peak_rss_mb"] = median(p.rssMB)
	o.metrics["alloc_mb"] = median(p.allocMB)
}

// traceSection runs a traced section of the run: f records spans into a
// fresh tracer, and the section's wall, spans and GC activity land in o.
func (o *outcome) traceSection(f func(t *tracer) error) error {
	t := newTracer()
	c0, p0 := gcStats()
	if err := f(t); err != nil {
		return err
	}
	o.wall = t.now()
	c1, p1 := gcStats()
	o.spans = t.snapshot()
	o.layers["tracing.wall_s"] = o.wall.Seconds()
	o.layers["gc.cycles"] = float64(c1 - c0)
	o.layers["gc.pause_ms"] = float64(p1-p0) / float64(time.Millisecond)
	return nil
}

// layerDefaults zero every per-layer metric a workload leaves unset: the
// layer is not exercised there.
func (o *outcome) layerDefaults() {
	for _, m := range perLayer {
		if _, ok := o.layers[m.name]; !ok {
			o.layers[m.name] = 0
		}
	}
}
