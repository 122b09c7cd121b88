package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/app"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file makes BMLConfig a first-class grid axis. The paper's central
// evidence is an ablation — the same workload replayed under different BML
// knobs (headroom, predictor, overhead-awareness) — and for those ablation
// cells to ride the distributed-sweep machinery their configuration must be
// part of the canonical cell identity. CanonicalConfig renders a BMLConfig
// in a normalized, deterministic form (nil/zero fields replaced by their
// effective defaults, so the default config serializes identically in every
// process), ConfigFingerprint hashes it into the cfg= component of the v2
// cell ID, and ConfigAxis/ParseConfigs give the CLIs a named config axis
// (`bmlsim -configs name=...:headroom=...:predictor=...`).

// ConfigAxis is one named point on the configuration axis of an experiment
// grid: a display name (used in cell names, reports, and the `config` field
// of cell records) plus the BMLConfig the BML scenario runs under. The
// zero config is conventionally named "default".
type ConfigAxis struct {
	Name   string
	Config BMLConfig
}

// DefaultConfigs is the trivial configuration axis: the paper's default
// BML config under its conventional name.
func DefaultConfigs() []ConfigAxis { return []ConfigAxis{{Name: "default"}} }

// configName restricts axis names to characters that survive everywhere a
// name travels: cell IDs ('|'-separated), /v1/pending (whitespace-split),
// file paths, CSV cells.
var configNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// ParseConfigs parses the -configs CLI grammar into a configuration axis:
// comma-separated config specs, each either the literal "default" (the
// zero BMLConfig) or colon-separated key=value pairs starting with the
// config's name:
//
//	default,name=h13:headroom=1.3,name=oa:overhead-aware=true
//
// Keys: name (required), headroom (≥1), window-factor (>0, and small
// enough that the Table I machines' window fits an int), predictor
// (lookahead|oracle|lastvalue|ewma|pattern), ewma-alpha ((0,1], only with
// predictor=ewma), overhead-aware (bool), amortize (seconds, requires
// overhead-aware=true), critical (bool: the §III critical-class app spec),
// boot-fault ([0,1) fault-injection probability), fault-seed (int,
// requires boot-fault), repeat-seed (nonzero int: marks the config as one
// repeat of a repeated experiment — normally set via RepeatConfigs, not by
// hand). Names must be unique; an empty string yields the
// default axis. Unlike the fleet axis, config order is preserved — it is
// the row order of the ablation table — so workers and coordinator must be
// given the same -configs string (any divergence changes cell IDs and is
// caught as a foreign-grid error).
func ParseConfigs(s string) ([]ConfigAxis, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultConfigs(), nil
	}
	var out []ConfigAxis
	seen := map[string]bool{}
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			return nil, fmt.Errorf("sim: config list %q: empty config spec", s)
		}
		axis, err := parseConfigSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("sim: config spec %q: %w", spec, err)
		}
		if seen[axis.Name] {
			return nil, fmt.Errorf("sim: config list %q: duplicate config name %q", s, axis.Name)
		}
		seen[axis.Name] = true
		out = append(out, axis)
	}
	return out, nil
}

// parseConfigSpec parses one colon-separated key=value config spec.
func parseConfigSpec(spec string) (ConfigAxis, error) {
	if spec == "default" {
		return ConfigAxis{Name: "default"}, nil
	}
	kv := map[string]string{}
	for _, pair := range strings.Split(spec, ":") {
		eq := strings.IndexByte(pair, '=')
		if eq <= 0 {
			return ConfigAxis{}, fmt.Errorf("bad pair %q: want key=value", pair)
		}
		k, v := strings.TrimSpace(pair[:eq]), strings.TrimSpace(pair[eq+1:])
		if _, dup := kv[k]; dup {
			return ConfigAxis{}, fmt.Errorf("duplicate key %q", k)
		}
		kv[k] = v
	}
	name, ok := kv["name"]
	if !ok {
		return ConfigAxis{}, fmt.Errorf("missing name= (or use the literal \"default\")")
	}
	if !configNameRE.MatchString(name) {
		return ConfigAxis{}, fmt.Errorf("config name %q: want only letters, digits, '.', '_', '-'", name)
	}
	delete(kv, "name")
	if name == "default" && len(kv) > 0 {
		// Reserved: a knob-carrying config labeled "default" would render
		// with default-looking cell names and a "default" report column —
		// silently different physics under the canonical label.
		return ConfigAxis{}, fmt.Errorf("the name \"default\" is reserved for the paper's zero config; name ablated knobs something else")
	}

	var cfg BMLConfig
	getF := func(key string) (float64, bool, error) {
		v, ok := kv[key]
		if !ok {
			return 0, false, nil
		}
		delete(kv, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, false, fmt.Errorf("%s=%q: %v", key, v, err)
		}
		// NaN slips past every range check below, and no knob means
		// anything at infinity.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false, fmt.Errorf("%s=%q: want a finite number", key, v)
		}
		return f, true, nil
	}
	getB := func(key string) (bool, bool, error) {
		v, ok := kv[key]
		if !ok {
			return false, false, nil
		}
		delete(kv, key)
		b, err := strconv.ParseBool(v)
		if err != nil {
			return false, false, fmt.Errorf("%s=%q: %v", key, v, err)
		}
		return b, true, nil
	}

	if h, ok, err := getF("headroom"); err != nil {
		return ConfigAxis{}, err
	} else if ok {
		if h < 1 {
			return ConfigAxis{}, fmt.Errorf("headroom %g: want >= 1", h)
		}
		cfg.Headroom = h
	}
	if wf, ok, err := getF("window-factor"); err != nil {
		return ConfigAxis{}, err
	} else if ok {
		if wf <= 0 {
			return ConfigAxis{}, fmt.Errorf("window-factor %g: want > 0", wf)
		}
		// Every grid runs on the Table I machines; their window must fit.
		if _, err := sched.Window(profile.PaperMachines(), wf); err != nil {
			return ConfigAxis{}, fmt.Errorf("window-factor %g: %v", wf, err)
		}
		cfg.WindowFactor = wf
	}
	oa, oaSet, err := getB("overhead-aware")
	if err != nil {
		return ConfigAxis{}, err
	}
	cfg.OverheadAware = oa
	if am, ok, err := getF("amortize"); err != nil {
		return ConfigAxis{}, err
	} else if ok {
		if !oaSet || !oa {
			return ConfigAxis{}, fmt.Errorf("amortize requires overhead-aware=true")
		}
		if am < 0 {
			return ConfigAxis{}, fmt.Errorf("amortize %g: want >= 0", am)
		}
		cfg.AmortizeSeconds = am
	}
	if crit, ok, err := getB("critical"); err != nil {
		return ConfigAxis{}, err
	} else if ok && crit {
		spec := app.StatelessWebServer()
		spec.Class = app.Critical
		cfg.App = &spec
	}
	bf, bfSet, err := getF("boot-fault")
	if err != nil {
		return ConfigAxis{}, err
	}
	if bfSet {
		if bf < 0 || bf >= 1 {
			return ConfigAxis{}, fmt.Errorf("boot-fault %g: want in [0, 1)", bf)
		}
		cfg.BootFaultProb = bf
	}
	if v, ok := kv["repeat-seed"]; ok {
		delete(kv, "repeat-seed")
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return ConfigAxis{}, fmt.Errorf("repeat-seed=%q: %v", v, err)
		}
		if seed == 0 {
			return ConfigAxis{}, fmt.Errorf("repeat-seed 0 is the unrepeated config; use a nonzero seed")
		}
		cfg.RepeatSeed = seed
	}
	if v, ok := kv["fault-seed"]; ok {
		delete(kv, "fault-seed")
		if !bfSet {
			return ConfigAxis{}, fmt.Errorf("fault-seed requires boot-fault")
		}
		// ParseInt, not a float cast: seeds past 2^53 must not be silently
		// rounded to a different fault schedule.
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return ConfigAxis{}, fmt.Errorf("fault-seed=%q: %v", v, err)
		}
		cfg.FaultSeed = seed
	}

	predName := kv["predictor"]
	delete(kv, "predictor")
	alpha, alphaSet, err := getF("ewma-alpha")
	if err != nil {
		return ConfigAxis{}, err
	}
	if alphaSet && predName != "ewma" {
		return ConfigAxis{}, fmt.Errorf("ewma-alpha requires predictor=ewma")
	}
	switch predName {
	case "", "lookahead":
		// The paper's default look-ahead-max predictor.
	case "oracle", "lastvalue", "pattern":
		cfg.PredictorSpec = predName
	case "ewma":
		if !alphaSet {
			alpha = defaultEWMAAlpha
		}
		if alpha <= 0 || alpha > 1 {
			return ConfigAxis{}, fmt.Errorf("ewma-alpha %g: want in (0, 1]", alpha)
		}
		cfg.PredictorSpec = fmt.Sprintf("ewma:%s", strconv.FormatFloat(alpha, 'g', -1, 64))
	default:
		return ConfigAxis{}, fmt.Errorf("unknown predictor %q (want lookahead, oracle, lastvalue, ewma, or pattern)", predName)
	}

	for k := range kv {
		return ConfigAxis{}, fmt.Errorf("unknown key %q", k)
	}
	return ConfigAxis{Name: name, Config: cfg}, nil
}

// defaultEWMAAlpha mirrors bmlsim's -ewma-alpha default.
const defaultEWMAAlpha = 0.1

// defaultAmortizeSeconds is the paper's 378 s amortization horizon (the
// sched default for AmortizeSeconds 0).
const defaultAmortizeSeconds = 378

// CanonicalConfig renders cfg as a single normalized line — the input of
// ConfigFingerprint. Every field that changes simulation results appears
// with its effective value (zero WindowFactor as the paper's 2, zero
// Headroom as the app-class default or 1, a nil predictor as "lookahead",
// zero amortization as 378 s), so BMLConfig{} and an explicitly spelled
// default serialize — and therefore fingerprint — identically in every
// process. Engine options are deliberately excluded: they select
// result-identical implementations (the tick oracle), not different
// physics.
func CanonicalConfig(cfg BMLConfig) string {
	wf := cfg.WindowFactor
	if wf == 0 {
		wf = sched.DefaultWindowFactor
	}
	headroom := cfg.Headroom
	if headroom == 0 {
		if cfg.App != nil {
			headroom = cfg.App.EffectiveHeadroom()
		} else {
			headroom = 1
		}
	}
	appStr := "-"
	if cfg.App != nil {
		a := cfg.App
		appStr = fmt.Sprintf("%s/%s/%s/mig=%t:%g:%g/inst=%d-%d/hr=%g",
			a.Name, a.Class, a.Knowledge,
			a.Migration.Migratable, a.Migration.Duration.Seconds(), float64(a.Migration.Energy),
			a.Malleability.MinInstances, a.Malleability.MaxInstances, a.Headroom)
	}
	inv := "-"
	if len(cfg.Inventory) > 0 {
		keys := make([]string, 0, len(cfg.Inventory))
		for k := range cfg.Inventory {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, cfg.Inventory[k])
		}
		inv = strings.Join(parts, ",")
	}
	fault := "-"
	if cfg.BootFaultProb > 0 {
		fault = fmt.Sprintf("%g@%d", cfg.BootFaultProb, cfg.FaultSeed)
	}
	overhead := "-"
	if cfg.OverheadAware {
		am := cfg.AmortizeSeconds
		if am == 0 {
			am = defaultAmortizeSeconds
		}
		overhead = strconv.FormatFloat(am, 'g', -1, 64)
	}
	s := fmt.Sprintf("wf=%g;headroom=%g;pred=%s;app=%s;inv=%s;fault=%s;overhead=%s",
		wf, headroom, predictorKind(cfg), appStr, inv, fault, overhead)
	if cfg.RepeatSeed != 0 {
		// Appended (never "rep=-") so every pre-repeat cache entry, journal,
		// and the golden default fingerprint keep their identity: only cells
		// that actually are repeats serialize differently.
		s += fmt.Sprintf(";rep=%d", cfg.RepeatSeed)
	}
	return s
}

// predictorKind names the predictor a config runs under, for the canonical
// serialization. A concrete Predictor instance self-describes via Name()
// (which embeds its parameters); a declarative PredictorSpec is used in
// normalized form; nil/empty is the paper's default look-ahead-max.
func predictorKind(cfg BMLConfig) string {
	if cfg.Predictor != nil {
		return cfg.Predictor.Name()
	}
	spec := cfg.PredictorSpec
	if spec == "" || spec == "lookahead" {
		return "lookahead"
	}
	if spec == "ewma" {
		return fmt.Sprintf("ewma:%g", defaultEWMAAlpha)
	}
	return spec
}

// ConfigFingerprint returns the stable FNV-1a hash of the canonical config
// serialization — the cfg= component of v2 cell IDs. Two processes agree
// on a cell's identity iff they agree on every result-affecting knob.
func ConfigFingerprint(cfg BMLConfig) uint64 {
	h := fnv.New64a()
	h.Write([]byte(CanonicalConfig(cfg)))
	return h.Sum64()
}

// predictorFromSpec builds the predictor a declarative PredictorSpec names
// over the (scaled) trace a grid cell actually replays — specs exist
// precisely because a concrete Predictor instance is bound to one trace
// and cannot be shared across fleet-scaled cells. Returns (nil, nil) for
// the default look-ahead spec, letting the caller build the shared
// LookaheadMax path. The window is the scheduler's look-ahead width in
// seconds (used by the pattern predictor).
func predictorFromSpec(tr *trace.Trace, spec string, window int) (predict.Predictor, error) {
	kind, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, arg = spec[:i], spec[i+1:]
	}
	switch kind {
	case "", "lookahead":
		return nil, nil
	case "oracle":
		return predict.NewOracle(tr), nil
	case "lastvalue":
		return predict.NewLastValue(tr), nil
	case "ewma":
		alpha := defaultEWMAAlpha
		if arg != "" {
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("sim: predictor spec %q: %v", spec, err)
			}
			alpha = f
		}
		return predict.NewEWMA(tr, alpha)
	case "pattern":
		return predict.NewDailyPattern(tr, window, 0)
	default:
		return nil, fmt.Errorf("sim: unknown predictor spec %q (want lookahead, oracle, lastvalue, ewma[:alpha], or pattern)", spec)
	}
}
