// Package sweep runs the study's design-space exploration: it enumerates
// cache configurations over the paper's parameter space (split
// direct-mapped L1 caches of 1KB–256KB, optional mixed L2 up to 256KB),
// evaluates each configuration's miss counts (trace simulation), chip
// area (rbe model), cycle times (timing model) and TPI (§2.5 model), and
// extracts best-performance envelopes — the solid staircase lines of the
// paper's figures.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"twolevel/internal/area"
	"twolevel/internal/cache"
	"twolevel/internal/chaos"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/perf"
	"twolevel/internal/spec"
	"twolevel/internal/timing"
	"twolevel/internal/trace"
)

// Options fixes the system parameters of one sweep (one figure).
type Options struct {
	// Tech is the process technology (default: the paper's 0.5µm).
	Tech timing.Tech
	// OffChipNS is the off-chip miss service time (50 or 200 in the
	// paper).
	OffChipNS float64
	// L2Assoc is the second-level associativity for two-level
	// configurations (1 or 4 in the paper).
	L2Assoc int
	// L2Policy is the replacement policy of a set-associative L2
	// (default pseudo-random, as in the paper).
	L2Policy cache.ReplacementPolicy
	// Policy is the two-level discipline (Conventional or Exclusive in
	// the paper; Inclusive for ablation).
	Policy core.Policy
	// DualPorted selects the §6 system: L1 cells with twice the area
	// and twice the bandwidth, doubling the instruction issue rate.
	DualPorted bool
	// Refs is the trace length per configuration (default
	// spec.DefaultRefs).
	Refs uint64
	// L1Sizes and L2Sizes override the enumerated sizes in bytes. A
	// zero L2 size means single-level. Defaults are the paper's 1KB–256KB
	// L1 range and {0} ∪ [2×L1, 256KB] L2 range.
	L1Sizes []int64
	L2Sizes []int64
	// SingleLevelOnly restricts the sweep to L2-less configurations.
	SingleLevelOnly bool
	// TwoLevelOnly restricts the sweep to configurations with an L2.
	TwoLevelOnly bool
	// Workers caps the parallel simulations (default: GOMAXPROCS).
	Workers int
	// LineSize overrides the 16-byte line size (ablation only).
	LineSize int

	// Timeout bounds the evaluation of a single configuration under
	// RunContext (0 = unbounded). A configuration that exceeds it fails
	// with a ConfigError wrapping context.DeadlineExceeded; the rest of
	// the sweep continues. It does not bound the sweep-level stage that
	// generates the trace and records the L1 passes before any
	// configuration starts.
	Timeout time.Duration
	// Retries is the number of extra evaluation attempts RunContext makes
	// for a configuration that failed transiently (panic or
	// per-configuration timeout) before recording a ConfigError. A
	// negative value counts as 0.
	Retries int
	// Progress, when non-nil, is called by RunContext after every
	// configuration completes, fails, or is served from Store. Calls are
	// serialized; the callback must not block for long.
	Progress func(ProgressEvent)
	// Store, when non-nil, makes RunContext resumable: a configuration
	// whose Key the store already holds is served from it without
	// re-evaluation, and every evaluated point is Put under its Key. A
	// durable store (internal/service's DiskStore) lets an interrupted
	// sweep pick up where it stopped. Fingerprint ignores it.
	Store PointStore

	// Metrics, when non-nil, receives live instrumentation under
	// RunContext: the sweep-level counters/gauges/histograms named by the
	// Metric* constants, plus the cache- and core-level counters of every
	// simulated hierarchy. Nil (the default) costs nothing — instruments
	// degrade to no-ops. Fingerprint ignores it.
	Metrics *obs.Registry
	// Events, when non-nil, receives the structured run journal
	// (sweep_start, config_start/done/error/retry/skipped, sweep_done,
	// and a final run_manifest) as JSONL under RunContext. Nil costs
	// nothing. Fingerprint ignores it.
	Events *obs.EventLog
	// Trace, when non-nil, receives a span tree of the run under
	// RunContext and Evaluator: sweep → {generate, l1-record → l1-pass,
	// config → {attempt → simulate, store-put}}, exportable as Chrome
	// trace_event JSON. Nil (the
	// default) costs nothing — span methods degrade to no-ops.
	// Fingerprint ignores it.
	Trace *span.Tracer
	// TraceParent, when non-nil, is the parent under which this sweep's
	// spans nest (cmd tools hang every sweep below one "run" span; the
	// service hangs evaluations below the job's span). Fingerprint
	// ignores it.
	TraceParent *span.Span
	// Chaos, when non-nil, fires the injector at ChaosSiteEvaluate on
	// every evaluation attempt, so tests can prove the retry, timeout,
	// and panic-isolation paths against injected faults. Nil (the
	// default) costs nothing. Fingerprint ignores it.
	Chaos *chaos.Injector
}

func (o Options) withDefaults() Options {
	if o.Tech == (timing.Tech{}) {
		o.Tech = timing.Paper05um
	}
	if o.OffChipNS == 0 {
		o.OffChipNS = 50
	}
	if o.L2Assoc == 0 {
		o.L2Assoc = 4
	}
	if o.Refs == 0 {
		o.Refs = spec.DefaultRefs
	}
	if len(o.L1Sizes) == 0 {
		o.L1Sizes = PaperL1Sizes()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.LineSize == 0 {
		o.LineSize = 16
	}
	return o
}

// Defaulted returns the options with every unset field replaced by its
// default (the paper's parameters), exactly as Run/RunContext/Evaluate
// default them internally. Consumers that must agree with the sweep on
// effective parameters — internal/model keys reuse-distance profiles by
// the defaulted Refs and LineSize — normalize through it.
func (o Options) Defaulted() Options { return o.withDefaults() }

// Fingerprint renders the result-determining option fields as a stable
// string. Two sweeps with equal fingerprints over the same workload
// evaluate identical configurations to identical points; run manifests
// record it so a resumed run can be matched to the run it continues.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	return fmt.Sprintf("tech=%g/%d;off=%g;l2assoc=%d;l2pol=%s;pol=%s;dual=%t;refs=%d;l1=%v;l2=%v;single=%t;two=%t;line=%d",
		o.Tech.Scale, o.Tech.AddrBits, o.OffChipNS, o.L2Assoc, o.L2Policy,
		o.Policy, o.DualPorted, o.Refs, o.L1Sizes, o.L2Sizes,
		o.SingleLevelOnly, o.TwoLevelOnly, o.LineSize)
}

// PaperL1Sizes returns the paper's L1 size range, 1KB–256KB.
func PaperL1Sizes() []int64 {
	var s []int64
	for kb := int64(1); kb <= 256; kb *= 2 {
		s = append(s, kb<<10)
	}
	return s
}

// PaperL2Sizes returns the paper's L2 sizes for a given L1 size: 0
// (single-level) plus every power of two from 2×L1 to 256KB.
func PaperL2Sizes(l1 int64) []int64 {
	s := []int64{0}
	for l2 := 2 * l1; l2 <= 256<<10; l2 *= 2 {
		s = append(s, l2)
	}
	return s
}

// Evaluator-tier names carried by Point.Evaluator and the persisted
// "evaluator" field. The empty string is equivalent to EvaluatorExact.
const (
	// EvaluatorExact marks a point produced by trace simulation.
	EvaluatorExact = "exact"
	// EvaluatorFast marks an approximate point produced by
	// internal/model's analytical reuse-distance predictor. Fast points
	// never enter memoized result stores.
	EvaluatorFast = "fast"
)

// Point is one evaluated configuration.
type Point struct {
	// Config is the simulated hierarchy.
	Config core.Config
	// Label is the paper's "x:y" notation (sizes in KB).
	Label string
	// Workload names the workload the point was evaluated under (empty
	// for points priced outside Run/RunContext/Evaluate).
	Workload string
	// Evaluator names the evaluation tier that produced the point:
	// EvaluatorExact (or "", the zero value) for trace simulation,
	// EvaluatorFast for the analytical model. Approx reports it.
	Evaluator string
	// AreaRbe is the total on-chip cache area in register-bit
	// equivalents.
	AreaRbe float64
	// TPINS is the average time per instruction in ns.
	TPINS float64
	// Machine carries the timing context used for TPI.
	Machine perf.Machine
	// Stats carries the simulated miss counts.
	Stats core.Stats
}

// TwoLevel reports whether the point has a second-level cache.
func (p Point) TwoLevel() bool { return p.Config.TwoLevel() }

// Approx reports whether the point is an analytical approximation
// (Evaluator == EvaluatorFast) rather than a simulated result.
func (p Point) Approx() bool { return p.Evaluator == EvaluatorFast }

// String renders a point like "8:64  area=812345  tpi=4.31".
func (p Point) String() string {
	return fmt.Sprintf("%-8s area=%.0f tpi=%.3f", p.Label, p.AreaRbe, p.TPINS)
}

// Configs enumerates the hierarchy configurations of a sweep.
func Configs(opt Options) []core.Config {
	opt = opt.withDefaults()
	var out []core.Config
	for _, l1 := range opt.L1Sizes {
		l2sizes := opt.L2Sizes
		if len(l2sizes) == 0 {
			l2sizes = PaperL2Sizes(l1)
		}
		for _, l2 := range l2sizes {
			if l2 == 0 && opt.TwoLevelOnly {
				continue
			}
			if l2 != 0 && (opt.SingleLevelOnly || l2 < 2*l1) {
				continue
			}
			cfg := core.Config{
				L1I:    cache.Config{Size: l1, LineSize: opt.LineSize, Assoc: 1},
				L1D:    cache.Config{Size: l1, LineSize: opt.LineSize, Assoc: 1},
				Policy: opt.Policy,
			}
			if l2 > 0 {
				cfg.L2 = cache.Config{
					Size: l2, LineSize: opt.LineSize,
					Assoc: opt.L2Assoc, Policy: opt.L2Policy,
				}
			}
			out = append(out, cfg)
		}
	}
	return out
}

// Label renders a hierarchy in the paper's "x:y" KB notation.
func Label(cfg core.Config) string {
	if !cfg.TwoLevel() {
		return fmt.Sprintf("%d:0", cfg.L1I.Size>>10)
	}
	return fmt.Sprintf("%d:%d", cfg.L1I.Size>>10, cfg.L2.Size>>10)
}

// Evaluate runs one workload through one configuration and prices it. It
// panics on an invalid configuration (use RunContext, or Config.Validate
// first, for untrusted input).
func Evaluate(w spec.Workload, cfg core.Config, opt Options) Point {
	opt = opt.withDefaults()
	p, err := evaluateStream(context.Background(), w.Stream(opt.Refs), cfg, opt)
	if err != nil {
		panic(err)
	}
	p.Workload = w.Name
	return p
}

// PriceConfig runs cfg through the timing and area models and returns
// the §2.5 machine description plus the total on-chip cache area in
// rbe — the cost-model half of an evaluation, without any simulation.
// It is shared by the exact simulator path (Evaluate/RunContext) and
// internal/model's analytical fast path, so the two evaluation tiers
// can never disagree on what a configuration costs.
func PriceConfig(cfg core.Config, opt Options) (perf.Machine, float64, error) {
	opt = opt.withDefaults()
	if err := cfg.Validate(); err != nil {
		return perf.Machine{}, 0, err
	}
	ports := 1
	issue := 1
	if opt.DualPorted {
		ports = 2
		issue = 2
	}
	l1p := timing.Params{
		Size: cfg.L1I.Size, LineSize: cfg.L1I.LineSize,
		Assoc: cfg.L1I.Assoc, OutputBits: 64, Ports: ports,
	}
	l1t, err := timing.TryOptimal(opt.Tech, l1p)
	if err != nil {
		return perf.Machine{}, 0, err
	}
	totalArea := 2 * area.Cache(l1p, l1t.Org) // split I and D caches

	m := perf.Machine{
		L1CycleNS: l1t.CycleTime,
		OffChipNS: opt.OffChipNS,
		IssueRate: issue,
	}
	if cfg.TwoLevel() {
		l2p := timing.Params{
			Size: cfg.L2.Size, LineSize: cfg.L2.LineSize,
			Assoc: cfg.L2.Assoc, OutputBits: 64, Ports: 1,
		}
		l2t, err := timing.TryOptimal(opt.Tech, l2p)
		if err != nil {
			return perf.Machine{}, 0, err
		}
		m.L2CycleNS = l2t.CycleTime
		totalArea += area.Cache(l2p, l2t.Org)
	}
	if err := m.Validate(); err != nil {
		return perf.Machine{}, 0, err
	}
	return m, totalArea, nil
}

// evaluateStream simulates cfg over an explicit reference stream and
// prices the configuration, honoring ctx cancellation mid-simulation.
func evaluateStream(ctx context.Context, st trace.Stream, cfg core.Config, opt Options) (Point, error) {
	return evaluateWith(cfg, opt, func() (core.Stats, error) {
		sys, err := core.TryNewSystem(cfg)
		if err != nil {
			return core.Stats{}, err
		}
		// The hierarchy counts into a registry of its own, added to
		// opt.Metrics once the run ends: counting every reference into
		// counters that concurrent evaluations share would have them
		// contend for the counters' cache lines.
		var local *obs.Registry
		if opt.Metrics != nil {
			local = obs.NewRegistry()
		}
		sys.Instrument(local)
		cs := &ctxStream{st: st, ctx: ctx}
		stats := sys.Run(cs)
		for name, v := range local.Snapshot().Counters {
			opt.Metrics.Counter(name).Add(v)
		}
		return stats, cs.err
	})
}

// evaluateWith prices cfg, then takes its statistics from simulate and
// computes its TPI.
func evaluateWith(cfg core.Config, opt Options, simulate func() (core.Stats, error)) (Point, error) {
	m, totalArea, err := PriceConfig(cfg, opt)
	if err != nil {
		return Point{}, err
	}
	stats, err := simulate()
	if err != nil {
		return Point{}, err
	}
	tpi, err := m.TimePerInstruction(stats)
	if err != nil {
		return Point{}, err
	}

	return Point{
		Config:  cfg,
		Label:   Label(cfg),
		AreaRbe: totalArea,
		TPINS:   tpi,
		Machine: m,
		Stats:   stats,
	}, nil
}

// ctxStream wraps a Stream and aborts it (reporting exhaustion) once ctx
// is done, checking every ctxCheckInterval references so a cancelled
// simulation stops promptly without a per-reference select.
type ctxStream struct {
	st  trace.Stream
	ctx context.Context
	n   uint32
	err error
}

const ctxCheckInterval = 8192

func (c *ctxStream) Next() (trace.Ref, bool) {
	if c.n++; c.n >= ctxCheckInterval {
		c.n = 0
		select {
		case <-c.ctx.Done():
			c.err = c.ctx.Err()
			return trace.Ref{}, false
		default:
		}
	}
	return c.st.Next()
}

// Run evaluates every configuration of the sweep for one workload and
// returns points sorted by area. The workload trace is generated once and
// replayed against every configuration (the generator costs more than the
// cache simulation, and replaying guarantees every configuration sees the
// identical reference stream, as in the original trace-driven study).
//
// Run is the trusted-input wrapper over RunContext: it panics on any
// evaluation failure. Services and long-running jobs should call
// RunContext instead.
func Run(w spec.Workload, opt Options) []Point {
	points, err := RunContext(context.Background(), w, opt)
	if err != nil {
		panic(err)
	}
	return points
}

// SortByArea orders points by ascending area (ties: ascending TPI, then
// label). The full tie-break makes the order independent of the input
// order, so sequential and worker-pool runs over the same point set sort
// identically.
func SortByArea(points []Point) {
	sort.Slice(points, func(i, j int) bool {
		if points[i].AreaRbe != points[j].AreaRbe {
			return points[i].AreaRbe < points[j].AreaRbe
		}
		if points[i].TPINS != points[j].TPINS {
			return points[i].TPINS < points[j].TPINS
		}
		return points[i].Label < points[j].Label
	})
}

// Envelope extracts the best-performance envelope: the Pareto-minimal
// staircase of points no other point beats in both area and TPI. Input
// need not be sorted; output is sorted by area.
func Envelope(points []Point) []Point {
	sorted := make([]Point, len(points))
	copy(sorted, points)
	SortByArea(sorted)
	var env []Point
	best := 0.0
	for _, p := range sorted {
		if len(env) == 0 || p.TPINS < best {
			env = append(env, p)
			best = p.TPINS
		}
	}
	return env
}

// Filter returns the points for which keep reports true.
func Filter(points []Point, keep func(Point) bool) []Point {
	var out []Point
	for _, p := range points {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// BestAtArea returns the lowest-TPI point whose area does not exceed
// budget, and false if no point fits.
func BestAtArea(points []Point, budget float64) (Point, bool) {
	found := false
	var best Point
	for _, p := range points {
		if p.AreaRbe > budget {
			continue
		}
		if !found || p.TPINS < best.TPINS {
			best, found = p, true
		}
	}
	return best, found
}

// MinTPI returns the point with the lowest TPI, and false for no points.
func MinTPI(points []Point) (Point, bool) {
	if len(points) == 0 {
		return Point{}, false
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.TPINS < best.TPINS {
			best = p
		}
	}
	return best, true
}
