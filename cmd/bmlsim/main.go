// Command bmlsim runs the paper's §V-C evaluation: the four scenarios
// (UpperBound Global, UpperBound PerDay, Big-Medium-Little, LowerBound
// Theoretical) over a World Cup–shaped trace, printing the Figure 5 daily
// energy comparison and the BML-versus-lower-bound overhead summary.
//
// Usage:
//
//	bmlsim                         # full 92-day evaluation (days 6–92)
//	bmlsim -days 10 -first 2       # shorter run
//	bmlsim -csv > fig5.csv         # machine-readable series
//	bmlsim -trace trace.txt        # replay a saved trace file
//	bmlsim -predictor ewma -error 0.2   # prediction ablations
//	bmlsim -quantize 60            # piecewise-constant load (1-min log granularity)
//	bmlsim -fleet 1000             # scale the load so the peak fleet is ~1000 machines
//	bmlsim -sweep -fleets 0,100,1000 -out cells.jsonl    # stream the whole grid
//	bmlsim -sweep -fleets 0,1000 -shard 0/4 -out s0.jsonl # run shard 0 of 4
//	bmlsim -sweep -fleets 0,1000 -shard 0/4 -sink http://host:8080  # stream to a bmlsweep coordinator
//	bmlsim -sweep -only pending.txt -sink http://host:8080          # re-dispatch only the listed cells
//	bmlsim -sweep -fleets 0,1000 -cache cells.cache -out s0.jsonl   # incremental: serve cached cells, compute the rest
//
// Sweep worker mode (-sweep) replaces the Figure 5 evaluation with a
// scenario × fleet experiment grid: every cell is simulated independently
// and streamed the moment it completes — to -out as one JSONL record, to
// a bmlsweep coordinator's ingest endpoint with -sink URL (each record is
// POSTed with retry/backoff as soon as the cell finishes, so a worker
// killed mid-grid has already made every completed cell durable on the
// coordinator), or both — so peak memory is bounded by the cells in
// flight rather than the grid.
// -shard i/N restricts the run to the deterministic shard i of N (cells
// are assigned by hashing their canonical cell ID, so any process
// enumerating the same grid agrees on the split without coordination —
// this is how a CI matrix or a fleet of hosts divides a grid). Merge and
// validate the shards with cmd/bmlsweep. -only file further restricts the
// run to an explicit set of canonical cell IDs — the coordinator's
// GET /v1/pending output — which is how crashed workers' cells are
// re-dispatched without re-running anything else. -first/-last are
// ignored in sweep mode (cells replay the whole trace), and the ablation knobs
// (-predictor, -error, -headroom, -window-factor, -overhead-aware,
// -amortize, -critical) are classic-mode only: they change cell results
// without changing canonical cell IDs, so divergent workers would merge
// into a silently inconsistent report.
//
// The -fleet flag multiplies the trace so the scheduler's peak combination
// provisions approximately N machines instead of the paper's handful —
// the thousand-node regime the cluster's transition min-heap and the
// planner's lazy combination lookup exist for. Large -fleet values make
// the LowerBound scenario's dense DP setup the dominant cost; combine
// with -quantize for fast large-fleet runs.
//
// The interval integrator costs O(scheduler events) engine iterations
// plus a tight per-sample fold, so raw un-quantized traces (-quantize 0)
// simulate as cheaply as quantized ones.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wc98"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bmlsim: ")
	var traceFiles repeatedString
	flag.Var(&traceFiles, "trace", "replay this trace file instead of generating (repeatable with -sweep: each file is one point of the grid's trace axis, named by its base filename)")
	var (
		days       = flag.Int("days", 92, "days to generate when no trace file is given")
		first      = flag.Int("first", 0, "first evaluated day (default: paper's day 6)")
		last       = flag.Int("last", 0, "last evaluated day (default: paper's day 92)")
		peak       = flag.Float64("peak", 5000, "generated trace peak rate")
		seed       = flag.Int64("seed", 1998, "generator seed")
		csv        = flag.Bool("csv", false, "emit the Figure 5 CSV instead of the table")
		headroom   = flag.Float64("headroom", 1, "prediction headroom factor (≥ 1)")
		windowF    = flag.Float64("window-factor", 2, "look-ahead window as a multiple of the longest boot")
		predName   = flag.String("predictor", "lookahead", "predictor: lookahead | oracle | lastvalue | ewma | pattern")
		ewmaAlpha  = flag.Float64("ewma-alpha", 0.1, "EWMA smoothing factor for -predictor ewma")
		errLevel   = flag.Float64("error", 0, "injected relative prediction error (paper's future work)")
		overhead   = flag.Bool("overhead-aware", false, "skip reconfigurations that cannot amortize their switching energy (future work)")
		amortize   = flag.Float64("amortize", 0, "amortization horizon in seconds for -overhead-aware (0 = 378)")
		critical   = flag.Bool("critical", false, "treat the application as QoS-critical (20% capacity headroom)")
		chart      = flag.Bool("chart", false, "render the Figure 5 series as an ASCII chart")
		quantize   = flag.Int("quantize", 0, "hold the load constant over windows of this many seconds (0 = raw 1 Hz trace)")
		fleet      = flag.Int("fleet", 0, "scale the trace so the scheduler's peak fleet has ~N machines (0 = paper scale)")
		sweep      = flag.Bool("sweep", false, "run the scenario × trace × fleet × config grid as a streaming sweep worker instead of the Figure 5 evaluation")
		fleets     = flag.String("fleets", "", "comma-separated fleet targets for -sweep (default: the -fleet value)")
		configs    = flag.String("configs", "", "with -sweep: comma-separated BML config axis, each \"default\" or colon-separated key=value pairs starting with name= (e.g. \"default,name=h13:headroom=1.3,name=oa:overhead-aware=true\"; keys: headroom, window-factor, predictor, ewma-alpha, overhead-aware, amortize, critical, boot-fault, fault-seed)")
		shard      = flag.String("shard", "", "with -sweep: run only shard i/N of the grid (e.g. 0/4)")
		outFile    = flag.String("out", "", "with -sweep: stream JSONL cell records to this file (default stdout)")
		sink       = flag.String("sink", "", "with -sweep: also stream each cell to this bmlsweep ingest URL (POST <url>/v1/cells, retry/backoff)")
		only       = flag.String("only", "", "with -sweep: run only the canonical cell IDs listed in this file (\"-\" = stdin) — feed a coordinator's GET /v1/pending output here to re-dispatch a crashed worker's cells")
		cacheSpec  = flag.String("cache", "", "with -sweep: content-addressed result cache, a local directory or a coordinator URL (http://...) — cells whose canonical ID already has a cached success are served from it without simulating, fresh successes are written back")
		dieAfter   = flag.Int("die-after", 0, "with -sweep: abort the process (exit 3, no flush) after streaming N cells — fault injection for kill-and-resume end-to-end tests")
		claim      = flag.Int("claim", 0, "with -sweep -sink: lease up to N pending cells at a time from the coordinator (POST /v1/lease, or /v2/runs/{run}/lease with -run) instead of a static -shard split; posts renew the lease, and the loop repeats until the run completes")
		runName    = flag.String("run", "", "with -sweep -sink: stream to and lease from this named run on a multi-run coordinator (/v2/runs/{run}/...) instead of the /v1 default run")
		token      = flag.String("token", "", "with -sweep: bearer token sent to the coordinator (Authorization: Bearer) on sink, lease, and coordinator-URL cache requests")
		tlsCA      = flag.String("tls-ca", "", "with -sweep: trust this PEM certificate (or CA bundle) when the -sink/-cache coordinator is https://")
		stallAfter = flag.Int("stall-after", 0, "with -sweep: hang the process (alive, leases held) after streaming N cells — fault injection for the coordinator's stalled-worker lease expiry")
	)
	flag.Parse()

	// Validate sweep-mode flags before any expensive work so malformed
	// shard specs (0/0, i >= N, negatives) fail loudly instead of silently
	// running nothing.
	var (
		configAxis []sim.ConfigAxis
		client     *http.Client
		coord      []sim.SinkOption
	)
	if !*sweep {
		for flagName, v := range map[string]string{"-shard": *shard, "-out": *outFile, "-fleets": *fleets, "-sink": *sink, "-only": *only, "-configs": *configs, "-cache": *cacheSpec, "-run": *runName, "-token": *token, "-tls-ca": *tlsCA} {
			if v != "" {
				log.Fatalf("%s requires -sweep", flagName)
			}
		}
		if *dieAfter != 0 {
			log.Fatal("-die-after requires -sweep")
		}
		if *claim != 0 {
			log.Fatal("-claim requires -sweep")
		}
		if *stallAfter != 0 {
			log.Fatal("-stall-after requires -sweep")
		}
		if len(traceFiles) > 1 {
			log.Fatal("multiple -trace files form a grid axis and require -sweep")
		}
	} else {
		if *shard != "" {
			if _, err := sim.ParseShard(*shard); err != nil {
				log.Fatal(err)
			}
		}
		// One client and one option list serve the sink, the cache and
		// the claim loop.
		var cerr error
		if client, cerr = sim.HTTPClientWithCA(*tlsCA); cerr != nil {
			log.Fatal(cerr)
		}
		coord = []sim.SinkOption{sim.WithSinkClient(client), sim.WithSinkRun(*runName), sim.WithSinkToken(*token)}
		if *sink != "" {
			if _, err := sim.NewHTTPSink(*sink, coord...); err != nil {
				log.Fatal(err)
			}
		}
		if *claim < 0 {
			log.Fatalf("invalid -claim %d", *claim)
		}
		if *claim > 0 && *sink == "" {
			log.Fatal("-claim leases cells from a coordinator and requires -sink URL")
		}
		if *claim > 0 && (*shard != "" || *only != "") {
			log.Fatal("-claim is coordinator-driven work stealing; it conflicts with the static -shard/-only splits")
		}
		if *dieAfter < 0 {
			log.Fatalf("invalid -die-after %d", *dieAfter)
		}
		if *stallAfter < 0 {
			log.Fatalf("invalid -stall-after %d", *stallAfter)
		}
		if *dieAfter > 0 && *stallAfter > 0 {
			log.Fatal("use one fault injection at a time: -die-after or -stall-after")
		}
		if configAxis, cerr = sim.ParseConfigs(*configs); cerr != nil {
			log.Fatal(cerr)
		}
	}

	if *quantize < 0 {
		log.Fatalf("invalid -quantize %d (want a positive window in seconds)", *quantize)
	}
	var traces []sim.TraceAxis
	var err error
	if len(traceFiles) > 0 {
		if traces, err = sim.LoadTraceAxes(traceFiles, *quantize); err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := trace.DefaultWorldCupConfig()
		cfg.Days = *days
		cfg.PeakRate = *peak
		cfg.Seed = *seed
		tr, gerr := trace.GenerateWorldCup(cfg)
		if gerr != nil {
			log.Fatal(gerr)
		}
		if *quantize > 0 {
			if tr, gerr = tr.Quantize(*quantize); gerr != nil {
				log.Fatal(gerr)
			}
		}
		traces = []sim.TraceAxis{{Trace: tr}}
	}
	tr := traces[0].Trace
	if end := tr.Days(); !*sweep && *first == 0 {
		if *last > 0 && *last < end {
			end = *last
		}
		if end < wc98.FirstDay {
			log.Fatalf("the evaluation ends on day %d, before the paper's first evaluated day %d: pass -first (e.g. -first 1) to evaluate a shorter trace", end, wc98.FirstDay)
		}
	}
	if *fleet < 0 {
		log.Fatalf("invalid -fleet %d (want a target machine count)", *fleet)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		log.Fatal(err)
	}
	if *fleet > 0 && !*sweep {
		base := planner.Combination(tr.Max()).TotalNodes()
		if base < 1 {
			base = 1
		}
		factor := float64(*fleet) / float64(base)
		if tr, err = tr.Scale(factor); err != nil {
			log.Fatal(err)
		}
		log.Printf("fleet scaling: load ×%.1f (paper-scale peak fleet %d machines → ~%d)", factor, base, *fleet)
	}
	predSpec := *predName
	if predSpec == "ewma" {
		predSpec += ":" + strconv.FormatFloat(*ewmaAlpha, 'g', -1, 64)
	}
	bmlCfg := sim.BMLConfig{
		Headroom:        *headroom,
		WindowFactor:    *windowF,
		PredictorSpec:   predSpec,
		OverheadAware:   *overhead,
		AmortizeSeconds: *amortize,
	}
	if *critical {
		spec := app.StatelessWebServer()
		spec.Class = app.Critical
		bmlCfg.App = &spec
		if *headroom == 1 {
			bmlCfg.Headroom = 0 // let the class default apply
		}
	}

	if *sweep {
		if (*predName != "lookahead" && *predName != "") || *errLevel > 0 {
			// Grid cells run at different fleet scales, each needing a
			// predictor over its own scaled trace; a single predictor
			// built over the unscaled trace would be silently wrong.
			log.Fatal("-sweep takes its predictor axis from -configs (predictor=...); -predictor/-error are classic-mode only")
		}
		if *headroom != 1 || *windowF != 2 || *overhead || *amortize != 0 || *critical {
			// A cell's config is a named point on the -configs axis, so it
			// lands in the canonical cell ID; the classic per-run knobs
			// bypass that naming and would let divergent workers merge
			// into a silently inconsistent report.
			log.Fatal("-headroom/-window-factor/-overhead-aware/-amortize/-critical are classic-mode only; in -sweep, spell ablations as -configs axes (e.g. -configs \"default,name=h13:headroom=1.3\")")
		}
		fleetAxis := *fleets
		if fleetAxis == "" {
			fleetAxis = fmt.Sprintf("%d", *fleet)
		}
		runSweepMode(traces, planner, configAxis, sweepOpts{
			fleets: fleetAxis, shard: *shard, out: *outFile, sink: *sink,
			only: *only, cacheSpec: *cacheSpec, run: *runName, token: *token,
			client: client, coord: coord, claim: *claim, dieAfter: *dieAfter, stallAfter: *stallAfter,
		})
		return
	}
	if *errLevel > 0 {
		// The injector wraps the predictor the run itself would build.
		_, inner, _, err := sim.LiveRig(tr, planner, bmlCfg)
		if err != nil {
			log.Fatal(err)
		}
		if bmlCfg.Predictor, err = predict.NewErrorInjector(inner, *errLevel, *seed); err != nil {
			log.Fatal(err)
		}
	}

	ev, err := wc98.Run(tr, profile.PaperMachines(), wc98.Config{
		FirstDay: *first, LastDay: *last, BML: bmlCfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *csv {
		if err := reportCSV(ev); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *chart {
		if err := reportChart(ev); err != nil {
			log.Fatal(err)
		}
	}
	if err := reportTable(ev); err != nil {
		log.Fatal(err)
	}
	bres := ev.Results["Big-Medium-Little"]
	fmt.Printf("scheduler: %d decisions, %d switch-ons, %d switch-offs, availability %.4f%%\n",
		bres.Decisions, bres.SwitchOns, bres.SwitchOffs, bres.QoS.Availability()*100)
	if bres.Skipped > 0 {
		fmt.Printf("overhead-aware policy skipped %d reconfigurations\n", bres.Skipped)
	}
	if bres.MigrationEnergy > 0 {
		fmt.Printf("application migration overhead: %v\n", bres.MigrationEnergy)
	}
	fmt.Printf("BML energy breakdown: %v\n", bres.Breakdown)
	if ub := ev.Results["UpperBound Global"]; ub != nil {
		fmt.Printf("UB Global idle share %.1f%% vs BML idle share %.1f%% — the static cost the paper's design removes\n",
			ub.Breakdown.IdleShare()*100, bres.Breakdown.IdleShare()*100)
	}
}

// repeatedString collects a repeatable string flag (-trace a.txt -trace
// b.txt) — each occurrence is one point of a sweep grid's trace axis.
type repeatedString []string

func (r *repeatedString) String() string { return strings.Join(*r, ",") }

func (r *repeatedString) Set(v string) error {
	*r = append(*r, v)
	return nil
}
