package main

// The traced direct path: the benchmark's own re-composition of a sweep
// from the public functions of each layer, so every layer is timed from
// outside the program. An exact point is trace.NewGenerator and
// trace.Collect (once per workload), then sweep.PriceConfig,
// core.System.Run and perf.Machine.TimePerInstruction per configuration;
// a fast point is model.Collect (once per workload), then model.Predict.
// The direct path must reproduce the points of sweep.RunContext and
// model.RunContext field by field, which the workloads check.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"twolevel/internal/core"
	"twolevel/internal/model"
	"twolevel/internal/obs/span"
	"twolevel/internal/perf"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/trace"
)

// Layer span names. Each names the public function the span wraps.
const (
	layerNewGen  = "trace.NewGenerator"
	layerCollect = "trace.Collect"
	layerPrice   = "sweep.PriceConfig"
	layerRun     = "core.System.Run"
	layerTPI     = "perf.TimePerInstruction"
	layerProfile = "model.Collect"
	layerPredict = "model.Predict"
)

// coreRun records one core.System.Run call, for the L1/L2 split.
type coreRun struct {
	group          int // one exact sweep of one workload
	l1, l2         int64
	dur            time.Duration
	refs, l1Misses uint64
	l2Probes       uint64
}

// directPath runs the direct path. With a nil tracer it runs untraced and
// records nothing; otherwise every layer call becomes a span and adds
// to the per-layer totals.
type directPath struct {
	tr      *span.Tracer
	workers int

	mu     sync.Mutex
	busy   map[string]time.Duration
	calls  map[string]int
	work   map[string]uint64 // references handled, for per-reference rates
	runs   []coreRun
	groups int
}

func newDirectPath(tr *span.Tracer, workers int) *directPath {
	return &directPath{
		tr: tr, workers: workers,
		busy: map[string]time.Duration{}, calls: map[string]int{}, work: map[string]uint64{},
	}
}

// timed runs f as one call of layer under parent and credits the layer
// with work references.
func (d *directPath) timed(parent *span.Span, layer string, work uint64, f func(), attrs ...span.Attr) time.Duration {
	if d.tr == nil {
		f()
		return 0
	}
	sp := d.tr.Start(parent, layer, attrs...)
	t0 := time.Now()
	f()
	dur := time.Since(t0)
	sp.End()
	d.mu.Lock()
	d.busy[layer] += dur
	d.calls[layer]++
	d.work[layer] += work
	d.mu.Unlock()
	return dur
}

// generate builds w's reference trace exactly as w.Stream(n) does.
func (d *directPath) generate(parent *span.Span, w spec.Workload, n uint64) []trace.Ref {
	var g *trace.Generator
	d.timed(parent, layerNewGen, 0, func() { g = trace.NewGenerator(w.Gen) })
	var refs []trace.Ref
	d.timed(parent, layerCollect, n, func() { refs = trace.Collect(trace.NewLimit(g, n), 0) })
	return refs
}

// exact evaluates every configuration of opt for w on the direct path,
// sorted by area as sweep.RunContext sorts its points.
func (d *directPath) exact(parent *span.Span, w spec.Workload, opt sweep.Options) ([]sweep.Point, error) {
	opt = opt.Defaulted()
	ws := d.tr.Start(parent, "workload", span.Attr{Key: "name", Value: w.Name}, span.Attr{Key: "tier", Value: "exact"})
	defer ws.End()
	refs := d.generate(ws, w, opt.Refs)
	return d.evalAll(ws, w.Name, refs, sweep.Configs(opt), opt)
}

// evalAll spreads the configurations over the path's workers, as
// sweep.RunContext does.
func (d *directPath) evalAll(parent *span.Span, name string, refs []trace.Ref, cfgs []core.Config, opt sweep.Options) ([]sweep.Point, error) {
	d.mu.Lock()
	d.groups++
	group := d.groups
	d.mu.Unlock()
	points := make([]sweep.Point, len(cfgs))
	errs := make([]error, len(cfgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < min(d.workers, len(cfgs)); n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				points[i], errs[i] = d.evalExact(parent, group, name, refs, cfgs[i], opt)
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	sweep.SortByArea(points)
	return points, errors.Join(errs...)
}

// evalExact is one exact point: PriceConfig, then System.Run, then
// TimePerInstruction.
func (d *directPath) evalExact(parent *span.Span, group int, name string, refs []trace.Ref, cfg core.Config, opt sweep.Options) (sweep.Point, error) {
	label := sweep.Label(cfg)
	cs := d.tr.Start(parent, "config", span.Attr{Key: "label", Value: label})
	defer cs.End()
	var (
		m    perf.Machine
		area float64
		err  error
	)
	d.timed(cs, layerPrice, 0, func() { m, area, err = sweep.PriceConfig(cfg, opt) })
	if err != nil {
		return sweep.Point{}, fmt.Errorf("%s %s: %w", name, label, err)
	}
	sys, err := core.TryNewSystem(cfg)
	if err != nil {
		return sweep.Point{}, fmt.Errorf("%s %s: %w", name, label, err)
	}
	var st core.Stats
	dur := d.timed(cs, layerRun, uint64(len(refs)), func() { st = sys.Run(trace.NewSliceStream(refs)) })
	var tpi float64
	d.timed(cs, layerTPI, 0, func() { tpi, err = m.TimePerInstruction(st) })
	if err != nil {
		return sweep.Point{}, fmt.Errorf("%s %s: %w", name, label, err)
	}
	if d.tr != nil {
		d.mu.Lock()
		d.runs = append(d.runs, coreRun{
			group: group, l1: cfg.L1I.Size, l2: cfg.L2.Size, dur: dur,
			refs: st.Refs(), l1Misses: st.L1Misses(), l2Probes: st.L2Hits + st.L2Misses,
		})
		d.mu.Unlock()
	}
	return sweep.Point{
		Config: cfg, Label: label, Workload: name,
		AreaRbe: area, TPINS: tpi, Machine: m, Stats: st,
	}, nil
}

// fast predicts every configuration of opt for w on the direct path:
// one profile pass, then one prediction per configuration in order, as
// model.RunContext does.
func (d *directPath) fast(parent *span.Span, w spec.Workload, opt sweep.Options) ([]sweep.Point, error) {
	opt = opt.Defaulted()
	ws := d.tr.Start(parent, "workload", span.Attr{Key: "name", Value: w.Name}, span.Attr{Key: "tier", Value: "fast"})
	defer ws.End()
	var (
		prof *model.Profile
		err  error
	)
	d.timed(ws, layerProfile, opt.Refs, func() { prof, err = model.Collect(context.Background(), w, opt) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return d.predictAll(ws, prof, sweep.Configs(opt), opt)
}

func (d *directPath) predictAll(parent *span.Span, prof *model.Profile, cfgs []core.Config, opt sweep.Options) ([]sweep.Point, error) {
	points := make([]sweep.Point, 0, len(cfgs))
	for _, cfg := range cfgs {
		var (
			p   sweep.Point
			err error
		)
		d.timed(parent, layerPredict, 0, func() { p, err = model.Predict(prof, cfg, opt) },
			span.Attr{Key: "label", Value: sweep.Label(cfg)})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", prof.Workload, sweep.Label(cfg), err)
		}
		points = append(points, p)
	}
	sweep.SortByArea(points)
	return points, nil
}

// busyTotal is the summed host time of every layer call.
func (d *directPath) busyTotal() time.Duration {
	var t time.Duration
	for _, b := range d.busy {
		t += b
	}
	return t
}

// merge adds o's totals into d.
func (d *directPath) merge(o *directPath) {
	for k, v := range o.busy {
		d.busy[k] += v
	}
	for k, v := range o.calls {
		d.calls[k] += v
	}
	for k, v := range o.work {
		d.work[k] += v
	}
	for _, r := range o.runs {
		r.group += d.groups
		d.runs = append(d.runs, r)
	}
	d.groups += o.groups
}

// layerMetrics reports the per-layer costs of the traced calls.
func (d *directPath) layerMetrics(res *result) {
	// Per-call and per-reference costs in ns; a layer that never ran
	// gives no value, which set reports as a problem.
	perCall := func(layer string) float64 { return ratio(float64(d.busy[layer]), float64(d.calls[layer])) }
	perRef := func(layer string) float64 { return ratio(float64(d.busy[layer]), float64(d.work[layer])) }
	gen := ratio(float64(d.busy[layerNewGen]+d.busy[layerCollect]), float64(d.work[layerCollect]))
	res.set("trace.gen_ns_per_ref", gen, "ns", d.calls[layerCollect])
	res.set("trace.newgen_ms", perCall(layerNewGen)/1e6, "ms", d.calls[layerNewGen])
	res.set("trace.ref_bytes", float64(unsafe.Sizeof(trace.Ref{})), "B", 1)
	res.set("timing.price_us_per_config", perCall(layerPrice)/1e3, "us", d.calls[layerPrice])
	res.set("model.profile_ns_per_ref", perRef(layerProfile)-gen, "ns", d.calls[layerProfile])
	res.set("model.predict_us_per_config", perCall(layerPredict)/1e3, "us", d.calls[layerPredict])

	// The L2's cost is what a two-level run adds to the single-level run
	// with the same L1 over the same trace.
	type l1Key struct {
		group int
		l1    int64
	}
	single := map[l1Key]time.Duration{}
	var (
		all, l1Only, l2Extra            time.Duration
		refs, l1Refs, twoRefs           uint64
		l1Misses, l2Probes, l2ProbedCfg uint64
	)
	for _, r := range d.runs {
		all += r.dur
		refs += r.refs
		l1Misses += r.l1Misses
		if r.l2 == 0 {
			single[l1Key{r.group, r.l1}] = r.dur
			l1Only += r.dur
			l1Refs += r.refs
		}
	}
	for _, r := range d.runs {
		if r.l2 == 0 {
			continue
		}
		twoRefs += r.refs
		l2Probes += r.l2Probes
		if s, ok := single[l1Key{r.group, r.l1}]; ok {
			l2Extra += r.dur - s
			l2ProbedCfg += r.l2Probes
		}
	}
	n := len(d.runs)
	res.set("core.ns_per_refcfg", float64(all)/float64(refs), "ns", n)
	res.set("core.l1_ns_per_ref", float64(l1Only)/float64(l1Refs), "ns", n)
	res.set("core.l2_ns_per_access", float64(l2Extra)/float64(l2ProbedCfg), "ns", n)
	res.set("core.l1_miss_frac", float64(l1Misses)/float64(refs), "ratio", n)
	res.set("core.l2_access_frac", float64(l2Probes)/float64(twoRefs), "ratio", n)
}

// accuracy compares fast points against exact points of the same
// configurations, per workload, as model.Compare and model.NewReport
// define the fast tier's error.
func accuracy(exact, fast []sweep.Point) (model.Report, error) {
	byWorkload := func(ps []sweep.Point) (map[string][]sweep.Point, []string) {
		m := map[string][]sweep.Point{}
		var order []string
		for _, p := range ps {
			if _, ok := m[p.Workload]; !ok {
				order = append(order, p.Workload)
			}
			m[p.Workload] = append(m[p.Workload], p)
		}
		return m, order
	}
	ex, order := byWorkload(exact)
	fa, _ := byWorkload(fast)
	var was []model.WorkloadAccuracy
	for _, name := range order {
		wa, err := model.Compare(name, ex[name], fa[name], nil)
		if err != nil {
			return model.Report{}, err
		}
		was = append(was, wa)
	}
	return model.NewReport(was), nil
}

// overhead is the tracing overhead on the same calls: the median of
// traced rounds over the median of untraced rounds, minus one. Rounds
// alternate so drift in the host's speed hits both sides alike.
func overhead(rounds int, workers int, f func(d *directPath)) float64 {
	var plain, traced []float64
	for i := 0; i < rounds; i++ {
		for _, tr := range []*span.Tracer{nil, span.NewTracer()} {
			d := newDirectPath(tr, workers)
			t0 := time.Now()
			f(d)
			dur := float64(time.Since(t0))
			if tr == nil {
				plain = append(plain, dur)
			} else {
				traced = append(traced, dur)
			}
		}
	}
	return median(traced)/median(plain) - 1
}

// ratio guards a quotient whose denominator may be zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
