package model

import (
	"context"
	"strconv"

	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// Evaluator is the fast evaluation tier, the analytical counterpart of
// the exact sweep.Evaluator: repeated evaluations of one workload under
// one option set, each returning a priced point — here predicted from
// the workload's reuse-distance profile instead of simulated. The profile is
// collected once, on first use (or fetched from a shared Cache), and
// every configuration after that costs O(buckets).
//
// An Evaluator is safe for concurrent use.
type Evaluator struct {
	w        spec.Workload
	opt      sweep.Options
	profiles *Cache

	predictions *obs.Counter
	passes      *obs.Counter
	passRefs    *obs.Counter
}

// NewEvaluator prepares a fast evaluator with a private profile cache.
func NewEvaluator(w spec.Workload, opt sweep.Options) *Evaluator {
	return NewEvaluatorWith(NewCache(), w, opt)
}

// NewEvaluatorWith prepares a fast evaluator sharing an external
// profile cache, so many evaluators (one per job × workload in the
// service) profile each workload at most once. Metrics from
// opt.Metrics and spans from opt.Trace are wired exactly as the exact
// tier wires its own.
func NewEvaluatorWith(profiles *Cache, w spec.Workload, opt sweep.Options) *Evaluator {
	opt = opt.Defaulted()
	if profiles == nil {
		profiles = NewCache()
	}
	e := &Evaluator{w: w, opt: opt, profiles: profiles}
	if opt.Metrics != nil {
		e.predictions = opt.Metrics.Counter(MetricPredictions)
		e.passes = opt.Metrics.Counter(MetricProfilePasses)
		e.passRefs = opt.Metrics.Counter(MetricProfileRefs)
	}
	return e
}

// Workload reports the workload the evaluator predicts for.
func (e *Evaluator) Workload() spec.Workload { return e.w }

// Profile returns the evaluator's reuse-distance profile, collecting
// it on first use. The collection pass is traced as a "model-profile"
// span and counted by MetricProfilePasses; cache hits cost neither.
func (e *Evaluator) Profile(ctx context.Context) (*Profile, error) {
	if p, ok := e.profiles.peek(e.w, e.opt); ok {
		return p, nil
	}
	ps := e.opt.Trace.Start(e.opt.TraceParent, "model-profile",
		span.Attr{Key: "workload", Value: e.w.Name})
	prof, ran, err := e.profiles.get(ctx, e.w, e.opt)
	if err != nil {
		ps.Annotate("error", err.Error())
		ps.End()
		return nil, err
	}
	if ran {
		e.passes.Inc()
		e.passRefs.Add(prof.Refs)
	}
	ps.Annotate("refs", strconv.FormatUint(prof.Refs, 10))
	ps.Annotate("fingerprint", prof.Fingerprint)
	ps.End()
	return prof, nil
}

// Evaluate predicts one configuration. Each call contributes one
// "model-predict" span (under Options.TraceParent) and increments
// MetricPredictions; the first call additionally pays the profile
// pass.
func (e *Evaluator) Evaluate(ctx context.Context, cfg core.Config) (sweep.Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prof, err := e.Profile(ctx)
	if err != nil {
		return sweep.Point{}, err
	}
	ps := e.opt.Trace.Start(e.opt.TraceParent, "model-predict",
		span.Attr{Key: "workload", Value: e.w.Name},
		span.Attr{Key: "label", Value: sweep.Label(cfg)})
	p, err := Predict(prof, cfg, e.opt)
	if err != nil {
		ps.Annotate("error", err.Error())
	} else {
		e.predictions.Inc()
		ps.Annotate("tpi_ns", strconv.FormatFloat(p.TPINS, 'g', -1, 64))
	}
	ps.End()
	return p, err
}

// peek returns the cached profile without collecting.
func (c *Cache) peek(w spec.Workload, opt sweep.Options) (*Profile, bool) {
	key := ProfileKey(w, opt)
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prof, e.prof != nil
}

// RunContext runs the fast tier over a whole sweep: one profile pass,
// then one prediction per enumerated configuration — the analytical
// mirror of sweep.RunContext. Points come back sorted by area like the
// exact sweep's. A configuration the cost model rejects fails the run
// (the exact tier's enumeration never produces one). opt.Store is
// ignored: fast points never enter stores.
func RunContext(ctx context.Context, w spec.Workload, opt sweep.Options) ([]sweep.Point, error) {
	e := NewEvaluator(w, opt)
	configs := sweep.Configs(e.opt)
	points := make([]sweep.Point, 0, len(configs))
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := e.Evaluate(ctx, cfg)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	sweep.SortByArea(points)
	return points, nil
}
