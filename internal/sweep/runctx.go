package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// ConfigError describes one configuration whose evaluation failed — a
// recovered panic, an invalid configuration, or a per-configuration
// timeout. A sweep with failed configurations still returns every point
// that completed; the ConfigErrors arrive joined in the error value.
type ConfigError struct {
	// Label is the configuration's "x:y" label.
	Label string
	// Workload names the workload being swept.
	Workload string
	// Cause is the underlying failure.
	Cause error
}

// Error renders the failure with its configuration context.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sweep: configuration %s (workload %s): %v", e.Label, e.Workload, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Cause }

// ProgressEvent reports one configuration's outcome to Options.Progress.
type ProgressEvent struct {
	// Done counts configurations finished so far (including skips and
	// failures); Total is the size of the sweep.
	Done, Total int
	// Label is the configuration just finished.
	Label string
	// Err is the configuration's failure, nil on success.
	Err error
	// Skipped reports that the configuration was satisfied from
	// Options.Resume without re-evaluation.
	Skipped bool
}

// evalTestHook, when non-nil, runs at the start of every configuration
// evaluation attempt. Tests use it to inject panics and count retries.
var evalTestHook func(core.Config)

// ChaosSiteEvaluate is the chaos-injection site fired at the start of
// every evaluation attempt (inside the panic guard and the
// per-configuration timeout), so injected panics, delays, and errors
// flow through exactly the recovery machinery a real failure would.
const ChaosSiteEvaluate = "sweep.evaluate"

// panicError marks a failure that was a recovered panic, so retry
// accounting can distinguish panics from timeouts while the rendered
// message stays "panic: <value>".
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("panic: %v", e.v) }

// RunContext is Run with operational hardening for long-running and
// service use:
//
//   - it honors ctx cancellation and deadlines, returning promptly with
//     the completed points and an error wrapping ctx.Err();
//   - each configuration is evaluated under recover(), so one panicking
//     configuration degrades the sweep into a *ConfigError instead of
//     crashing it;
//   - Options.Timeout bounds each configuration and Options.Retries
//     re-attempts transient failures;
//   - Options.Checkpoint journals completed points and Options.Resume
//     skips configurations a previous journal already covers;
//   - Options.Progress observes completions.
//
// On success the error is nil and the points cover the full
// configuration space, sorted by area exactly as Run sorts them. With
// failed configurations the completed points are returned alongside the
// joined ConfigErrors.
func RunContext(ctx context.Context, w spec.Workload, opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	cfgs := Configs(opt)
	total := len(cfgs)
	key := SweepKey(w.Name, opt)
	resumed := opt.Resume.forKey(key)
	met := newRunMetrics(opt.Metrics)
	met.total.Add(int64(total))
	met.workers.Set(int64(opt.Workers))
	opt.Events.Emit(obs.Event{
		Type: obs.EventSweepStart, Workload: w.Name,
		Fingerprint: opt.Fingerprint(), Total: total,
	})
	sw := opt.Trace.Start(opt.TraceParent, "sweep",
		span.Attr{Key: "workload", Value: w.Name},
		span.Attr{Key: "fingerprint", Value: opt.Fingerprint()},
		span.Attr{Key: "total", Value: strconv.Itoa(total)})

	var (
		mu      sync.Mutex
		points  = make([]Point, total)
		have    = make([]bool, total)
		errs    []error
		done    int
		skipped int
		failed  int
	)
	report := func(ev ProgressEvent) {
		if opt.Progress != nil {
			opt.Progress(ev)
		}
	}

	var pending []job
	for i, cfg := range cfgs {
		label := Label(cfg)
		if p, ok := resumed[label]; ok {
			points[i], have[i] = p, true
			done++
			skipped++
			met.skipped.Inc()
			opt.Events.Emit(obs.Event{
				Type: obs.EventConfigSkipped, Workload: w.Name, Label: label,
				Done: done, Total: total,
			})
			// Resumed configurations appear in the trace as instant
			// config spans, so a resumed run's tree is still complete.
			rs := sw.Child("config", span.Attr{Key: "label", Value: label})
			rs.Annotate("outcome", "resumed")
			rs.End()
			report(ProgressEvent{Done: done, Total: total, Label: label, Skipped: true})
			continue
		}
		pending = append(pending, job{i, cfg})
	}

	if len(pending) > 0 && ctx.Err() == nil {
		refs := trace.Collect(w.Stream(opt.Refs), opt.Refs)
		met.queueDepth.Set(int64(len(pending)))
		q := newGroupQueue(ctx, groupByL1(pending))
		var wg sync.WaitGroup
		for n := 0; n < min(opt.Workers, len(pending)); n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j, g, ok := q.take()
					if !ok {
						return
					}
					met.queueDepth.Add(-1)
					label := Label(j.cfg)
					opt.Events.Emit(obs.Event{Type: obs.EventConfigStart, Workload: w.Name, Label: label})
					cs := sw.Child("config", span.Attr{Key: "label", Value: label})
					start := time.Now()
					p, err := evaluateOne(ctx, w.Name, refs, g, j.cfg, opt, met, cs)
					dur := time.Since(start)
					mu.Lock()
					done++
					switch {
					case err == nil:
						points[j.i], have[j.i] = p, true
						met.done.Inc()
						met.cfgSeconds.Observe(dur.Seconds())
						cs.Annotate("outcome", "ok")
						opt.Events.Emit(obs.Event{
							Type: obs.EventConfigDone, Workload: w.Name, Label: label,
							Done: done, Total: total, DurNS: dur.Nanoseconds(),
							Area: p.AreaRbe, TPI: p.TPINS,
						})
						if opt.Checkpoint != nil {
							fl := cs.Child("checkpoint-flush")
							ckStart := time.Now()
							cerr := opt.Checkpoint.Record(key, p)
							ckDur := time.Since(ckStart)
							fl.End()
							met.ckptSeconds.Observe(ckDur.Seconds())
							if cerr != nil {
								errs = append(errs, fmt.Errorf("sweep: checkpointing %s: %w", p.Label, cerr))
							} else {
								opt.Events.Emit(obs.Event{
									Type: obs.EventCheckpointFlush, Workload: w.Name,
									Label: label, DurNS: ckDur.Nanoseconds(),
								})
							}
						}
					case ctx.Err() != nil:
						// The whole run was cancelled mid-evaluation;
						// that is reported once below, not per config.
						cs.Annotate("outcome", "cancelled")
					default:
						failed++
						met.failures.Inc()
						errs = append(errs, err)
						cs.Annotate("outcome", "failed")
						cs.Annotate("error", err.Error())
						opt.Events.Emit(obs.Event{
							Type: obs.EventConfigError, Workload: w.Name, Label: label,
							Done: done, Total: total, Err: err.Error(),
						})
					}
					cs.End()
					report(ProgressEvent{Done: done, Total: total, Label: label, Err: err})
					mu.Unlock()
					q.done(g)
				}
			}()
		}
		wg.Wait()
		q.stop()
		met.queueDepth.Set(0)
	}

	completed := make([]Point, 0, total)
	for i, ok := range have {
		if ok {
			completed = append(completed, points[i])
		}
	}
	SortByArea(completed)
	doneEv := obs.Event{
		Type: obs.EventSweepDone, Workload: w.Name,
		Done: done, Total: total, Skipped: skipped, Failed: failed,
	}
	manifest := obs.Event{
		Type: obs.EventRunManifest, Workload: w.Name,
		Fingerprint: opt.Fingerprint(),
		Done:        done, Total: total, Skipped: skipped, Failed: failed,
	}
	sw.Annotate("done", strconv.Itoa(done))
	sw.Annotate("skipped", strconv.Itoa(skipped))
	sw.Annotate("failed", strconv.Itoa(failed))
	if err := ctx.Err(); err != nil {
		sw.Annotate("interrupted", err.Error())
		sw.End()
		doneEv.Err = err.Error()
		manifest.Err = err.Error()
		opt.Events.Emit(doneEv)
		opt.Events.Emit(manifest)
		return completed, fmt.Errorf("sweep: %s interrupted after %d/%d configurations: %w",
			w.Name, len(completed), total, err)
	}
	sw.End()
	opt.Events.Emit(doneEv)
	opt.Events.Emit(manifest)
	return completed, errors.Join(errs...)
}

// evaluateOne evaluates a single configuration with panic recovery, the
// per-configuration timeout, and bounded retries, wrapping any final
// failure in a ConfigError. A parent-context cancellation is returned
// unwrapped (it is a property of the run, not of the configuration).
// Every attempt appears in the trace as its own child of parent, so
// retries show up as sibling "attempt" spans.
//
// A non-nil g is the configuration's group: when the configuration is
// core.ReplayEligible, the attempt takes its statistics from the group's
// L1 pass instead of simulating the whole hierarchy.
func evaluateOne(ctx context.Context, workload string, refs []trace.Ref, g *l1Group, cfg core.Config, opt Options, met *runMetrics, parent *span.Span) (Point, error) {
	var err error
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		as := parent.Child("attempt", span.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
		var p Point
		p, err = evaluateGuarded(ctx, refs, g, cfg, opt, as)
		if err == nil {
			as.End()
			p.Workload = workload
			return p, nil
		}
		as.Annotate("error", err.Error())
		if ctx.Err() != nil {
			as.End()
			return Point{}, err
		}
		var pe panicError
		cause := "error"
		switch {
		case errors.As(err, &pe):
			met.panics.Inc()
			cause = "panic"
		case errors.Is(err, context.DeadlineExceeded):
			// The parent context is live (checked above), so the deadline
			// that fired was the per-configuration one.
			met.timeouts.Inc()
			cause = "timeout"
		}
		if attempt < opt.Retries {
			met.retries.Inc()
			as.Annotate("retry_cause", cause)
			opt.Events.Emit(obs.Event{
				Type: obs.EventConfigRetry, Workload: workload, Label: Label(cfg),
				Attempt: attempt + 1, Err: err.Error(),
			})
		}
		as.End()
	}
	return Point{}, &ConfigError{Label: Label(cfg), Workload: workload, Cause: err}
}

// evaluateGuarded is one evaluation attempt: panics become errors and the
// per-configuration timeout is applied. The simulation proper is traced
// as a "simulate" child of the attempt span (ended even when the
// evaluation panics, so the trace stays complete); an attempt that runs
// its group's L1 pass shows it as an "l1-pass" child of "simulate".
func evaluateGuarded(ctx context.Context, refs []trace.Ref, g *l1Group, cfg core.Config, opt Options, sp *span.Span) (p Point, err error) {
	sim := sp.Child("simulate", span.Attr{Key: "refs", Value: strconv.Itoa(len(refs))})
	defer func() {
		if r := recover(); r != nil {
			err = panicError{v: r}
		}
		sim.End()
	}()
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	if evalTestHook != nil {
		evalTestHook(cfg)
	}
	if err := opt.Chaos.Hit(ChaosSiteEvaluate); err != nil {
		return Point{}, err
	}
	if g == nil || !core.ReplayEligible(cfg) {
		return evaluateStream(ctx, trace.NewSliceStream(refs), cfg, opt)
	}
	return evaluateWith(cfg, opt, func() (core.Stats, error) {
		pass, err := g.l1Pass(ctx, refs, cfg, sim)
		if err != nil {
			return core.Stats{}, err
		}
		return pass.Replay(ctx, cfg, opt.Metrics)
	})
}

// l1Group is a run of a sweep's pending configurations that share one L1
// pass: the core.ReplayEligible configurations with one L1 geometry, or
// a single ineligible configuration, which never records a pass.
type l1Group struct {
	jobs []job
	// next is the first job not yet handed out, and running counts the
	// jobs being evaluated; both are guarded by the groupQueue's mutex.
	next, running int
	// pass is recorded by the first attempt that succeeds, and dropped
	// once the group's last job finishes.
	pass atomic.Pointer[core.L1Pass]
}

// job is one pending configuration and its index in the sweep.
type job struct {
	i   int
	cfg core.Config
}

// groupByL1 groups the eligible jobs by L1 geometry, in order of first
// appearance. Every other job forms a group of its own.
func groupByL1(jobs []job) []*l1Group {
	type geometry struct{ l1i, l1d cache.Config }
	var groups []*l1Group
	index := map[geometry]*l1Group{}
	for _, j := range jobs {
		if !core.ReplayEligible(j.cfg) {
			groups = append(groups, &l1Group{jobs: []job{j}})
			continue
		}
		key := geometry{j.cfg.L1I, j.cfg.L1D}
		g := index[key]
		if g == nil {
			g = &l1Group{}
			index[key] = g
			groups = append(groups, g)
		}
		g.jobs = append(g.jobs, j)
	}
	return groups
}

// l1Pass returns the group's L1 pass, recording it under sp on first
// use. A failed pass is not kept, so the next attempt records it again.
// The groupQueue runs no other job of the group until the pass is
// recorded, so it is recorded by one attempt at a time.
func (g *l1Group) l1Pass(ctx context.Context, refs []trace.Ref, cfg core.Config, sp *span.Span) (*core.L1Pass, error) {
	if pass := g.pass.Load(); pass != nil {
		return pass, nil
	}
	ps := sp.Child("l1-pass", span.Attr{Key: "l1", Value: cache.FormatSize(cfg.L1I.Size)})
	defer ps.End() // also when the pass panics
	pass, err := core.RecordL1(ctx, cfg, refs)
	if err != nil {
		return nil, err
	}
	g.pass.Store(pass)
	return pass, nil
}

// groupQueue hands a sweep's pending jobs to its workers. A group's jobs
// wait while one of them records the group's pass; once it is recorded,
// any worker may replay the rest, since the pass is immutable. A worker
// takes a job of a group already started, oldest first, before it starts
// a new group, so at most one pass per worker is held at a time.
type groupQueue struct {
	ctx     context.Context
	mu      sync.Mutex
	cond    sync.Cond
	groups  []*l1Group
	started int         // groups[:started] have handed out a job
	stop    func() bool // stops waking workers on cancellation
}

func newGroupQueue(ctx context.Context, groups []*l1Group) *groupQueue {
	q := &groupQueue{ctx: ctx, groups: groups}
	q.cond.L = &q.mu
	// Waiting workers wake up when the run is cancelled.
	q.stop = context.AfterFunc(ctx, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		q.cond.Broadcast()
	})
	return q
}

// take returns the next job to evaluate and its group. It waits while the
// only jobs left belong to groups whose pass is being recorded, and
// reports false once no job is left or ctx is done.
func (q *groupQueue) take() (job, *l1Group, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.ctx.Err() == nil {
		recording := false
		for _, g := range q.groups[:q.started] {
			if g.next == len(g.jobs) {
				continue
			}
			if g.running > 0 && g.pass.Load() == nil {
				recording = true
				continue
			}
			return q.hand(g)
		}
		if q.started < len(q.groups) {
			q.started++
			return q.hand(q.groups[q.started-1])
		}
		if !recording {
			break
		}
		q.cond.Wait()
	}
	return job{}, nil, false
}

func (q *groupQueue) hand(g *l1Group) (job, *l1Group, bool) {
	j := g.jobs[g.next]
	g.next++
	g.running++
	return j, g, true
}

// done marks one job of g finished, drops g's pass after its last job,
// and wakes the workers waiting for a pass.
func (q *groupQueue) done(g *l1Group) {
	q.mu.Lock()
	defer q.mu.Unlock()
	g.running--
	if g.next == len(g.jobs) && g.running == 0 {
		g.pass.Store(nil)
	}
	q.cond.Broadcast()
}
