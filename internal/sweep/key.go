package sweep

// This file defines the canonical identity of evaluated work: Key names
// one evaluated point, and PointStore memoizes points under it. A
// resumable RunContext and internal/service's result store both key off
// Key, so their notions of "the same evaluation" cannot drift and a
// store written by one serves hits to the other.

import (
	"context"
	"fmt"
	"sync"

	"twolevel/internal/core"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// Key identifies one evaluated point: the workload name, the
// result-determining subset of the options, and the full configuration
// geometry. Two evaluations with equal keys produce identical points,
// so Key is safe to use as a memoization key (it is how
// PointStore implementations address completed work).
//
// Unlike Options.Fingerprint, Key deliberately excludes the
// enumeration-only option fields (L1Sizes, L2Sizes, SingleLevelOnly,
// TwoLevelOnly) and the fields Configs materializes into each
// core.Config (L2Assoc, L2Policy, Policy, LineSize): those either do not
// affect a single point's result or are already captured by the
// configuration itself.
// Two sweeps that enumerate different size lists therefore share keys
// for the configurations they have in common — the property that lets
// an overlapping job reuse another job's cached points.
func Key(workload string, cfg core.Config, opt Options) string {
	o := opt.withDefaults()
	return fmt.Sprintf("%s|tech=%g/%d;off=%g;dual=%t;refs=%d|%s",
		workload, o.Tech.Scale, o.Tech.AddrBits, o.OffChipNS, o.DualPorted, o.Refs,
		configKey(cfg))
}

// PointStore memoizes completed points by Key. Options.Store makes a
// RunContext sweep resumable through one; internal/service's MemStore,
// DiskStore and HotStore implement it. Implementations must be safe for
// concurrent use, and Put must be idempotent for a key (evaluations are
// deterministic, so re-putting a key stores the same value).
type PointStore interface {
	// Get returns the stored point for key, if any.
	Get(key string) (Point, bool)
	// Put stores a completed point under key.
	Put(key string, p Point)
}

// configKey renders the complete simulatable identity of a hierarchy
// configuration — unlike Label's "x:y" display form, it pins line
// sizes, associativities, replacement policies, the two-level
// discipline, and the write mode, so distinct geometries can never
// collide under one key.
func configKey(cfg core.Config) string {
	k := fmt.Sprintf("l1i=%d/%d/%d/%s;l1d=%d/%d/%d/%s;wr=%d",
		cfg.L1I.Size, cfg.L1I.LineSize, cfg.L1I.Assoc, cfg.L1I.Policy,
		cfg.L1D.Size, cfg.L1D.LineSize, cfg.L1D.Assoc, cfg.L1D.Policy,
		int(cfg.Writes))
	if cfg.TwoLevel() {
		k += fmt.Sprintf(";l2=%d/%d/%d/%s;pol=%s",
			cfg.L2.Size, cfg.L2.LineSize, cfg.L2.Assoc, cfg.L2.Policy, cfg.Policy)
	}
	return k
}

// PointEvaluator is the single-configuration evaluation contract the
// service and cmd tools program against: repeated evaluations of one
// workload under one option set, each returning a priced Point. Two
// tiers satisfy it — *Evaluator here (exact trace simulation) and
// internal/model's analytical evaluator (reuse-distance prediction) —
// so a sweep or job can switch tiers without touching the pipeline
// around it.
type PointEvaluator interface {
	// Workload reports the workload the evaluator replays.
	Workload() spec.Workload
	// Evaluate prices one configuration. Points carry the workload name
	// and the producing tier in Point.Evaluator.
	Evaluate(ctx context.Context, cfg core.Config) (Point, error)
}

// Evaluator performs repeated hardened single-configuration evaluations
// of one workload under one option set — the per-configuration semantics
// of RunContext (panic recovery, Options.Timeout, Options.Retries,
// retry events, and the panic/timeout/retry counters on Options.Metrics)
// without the sweep-level enumeration. The workload trace is generated
// once, on first use, and replayed for every configuration, exactly as
// RunContext replays it.
//
// An Evaluator is safe for concurrent use; internal/service's worker
// pool shares one per (job, workload).
type Evaluator struct {
	w    spec.Workload
	opt  Options
	met  *runMetrics
	once sync.Once
	refs []trace.Ref
}

var _ PointEvaluator = (*Evaluator)(nil)

// NewEvaluator prepares an evaluator for one workload. Only the
// per-configuration fields of opt participate (Timeout, Retries, Refs,
// Tech, OffChipNS, DualPorted, Metrics, Events, LineSize); the
// enumeration fields are ignored.
func NewEvaluator(w spec.Workload, opt Options) *Evaluator {
	opt = opt.withDefaults()
	return &Evaluator{w: w, opt: opt, met: newRunMetrics(opt.Metrics)}
}

// Workload reports the workload the evaluator replays.
func (e *Evaluator) Workload() spec.Workload { return e.w }

// Evaluate runs one configuration with RunContext's per-configuration
// hardening and returns the priced point. Failures arrive as
// *ConfigError exactly as RunContext records them; a ctx cancellation is
// returned unwrapped. With Options.Trace set, each call contributes one
// "config" span (under Options.TraceParent) with its attempt children.
func (e *Evaluator) Evaluate(ctx context.Context, cfg core.Config) (Point, error) {
	e.once.Do(func() { e.refs = trace.Collect(e.w.Stream(e.opt.Refs), e.opt.Refs) })
	if ctx == nil {
		ctx = context.Background()
	}
	cs := e.opt.Trace.Start(e.opt.TraceParent, "config",
		span.Attr{Key: "workload", Value: e.w.Name},
		span.Attr{Key: "label", Value: Label(cfg)})
	p, err := evaluateOne(ctx, e.w.Name, e.refs, nil, cfg, e.opt, e.met, cs)
	if err != nil {
		cs.Annotate("error", err.Error())
	}
	cs.End()
	return p, err
}
