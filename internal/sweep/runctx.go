package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
	// Skipped reports that the configuration was served from
	// Options.Store without re-evaluation.
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
//   - Options.Store serves configurations it already holds and stores
//     every point evaluated, so an interrupted sweep resumes;
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
		if p, ok := stored(opt.Store, w.Name, cfg, opt); ok {
			points[i], have[i] = p, true
			done++
			skipped++
			met.skipped.Inc()
			opt.Events.Emit(obs.Event{
				Type: obs.EventConfigSkipped, Workload: w.Name, Label: label,
				Done: done, Total: total,
			})
			// Stored configurations appear in the trace as instant
			// config spans, so a resumed run's tree is still complete.
			rs := sw.Child("config", span.Attr{Key: "label", Value: label})
			rs.Annotate("outcome", "cached")
			rs.End()
			report(ProgressEvent{Done: done, Total: total, Label: label, Skipped: true})
			continue
		}
		pending = append(pending, job{i, cfg})
	}

	if len(pending) > 0 && ctx.Err() == nil {
		groups := groupByL1(pending)
		refs := recordPasses(ctx, w, groups, opt, sw)
		met.queueDepth.Set(int64(len(pending)))
		// Every pass is recorded, so the jobs go out in group order with
		// no waiting; sized to hold every job.
		queue := make(chan queued, len(pending))
		for _, g := range groups {
			g.left.Store(int32(len(g.jobs)))
			for _, j := range g.jobs {
				queue <- queued{j, g}
			}
		}
		close(queue)
		var wg sync.WaitGroup
		for n := 0; n < min(opt.Workers, len(pending)); n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range queue {
					if ctx.Err() != nil {
						return
					}
					j, g := q.job, q.group
					met.queueDepth.Add(-1)
					label := Label(j.cfg)
					opt.Events.Emit(obs.Event{Type: obs.EventConfigStart, Workload: w.Name, Label: label})
					cs := sw.Child("config", span.Attr{Key: "label", Value: label})
					start := time.Now()
					p, err := evaluateOne(ctx, w.Name, refs, g.pass, j.cfg, opt, met, cs)
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
						if opt.Store != nil {
							ps := cs.Child("store-put")
							opt.Store.Put(Key(w.Name, j.cfg, opt), p)
							ps.End()
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
					if g.left.Add(-1) == 0 {
						g.pass = nil // the group's last job is done
					}
				}
			}()
		}
		wg.Wait()
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

// stored looks cfg up in store under its Key. A hit is returned as a
// fresh evaluation of cfg would be: the key pins the full geometry, but
// a durable store rebuilds 16-byte-line configurations and names the
// exact tier explicitly, so the enumerated cfg, the workload, and the
// exact tier's zero-value Evaluator are restored.
func stored(store PointStore, workload string, cfg core.Config, opt Options) (Point, bool) {
	if store == nil {
		return Point{}, false
	}
	p, ok := store.Get(Key(workload, cfg, opt))
	if !ok {
		return Point{}, false
	}
	p.Config, p.Workload, p.Evaluator = cfg, workload, ""
	return p, true
}

// evaluateOne evaluates a single configuration with panic recovery, the
// per-configuration timeout, and bounded retries, wrapping any final
// failure in a ConfigError. A parent-context cancellation is returned
// unwrapped (it is a property of the run, not of the configuration).
// Every attempt appears in the trace as its own child of parent, so
// retries show up as sibling "attempt" spans.
//
// A non-nil pass is the recorded L1 pass of the configuration's group:
// the attempt replays it instead of simulating the whole hierarchy over
// refs.
func evaluateOne(ctx context.Context, workload string, refs []trace.Ref, pass *core.L1Pass, cfg core.Config, opt Options, met *runMetrics, parent *span.Span) (Point, error) {
	var err error
	// A negative Retries still makes the one attempt, so a ConfigError
	// always carries the cause of a real failure.
	for attempt := 0; attempt <= max(opt.Retries, 0); attempt++ {
		as := parent.Child("attempt", span.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
		var p Point
		p, err = evaluateGuarded(ctx, refs, pass, cfg, opt, as)
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
// as a "simulate" child of the attempt span, which carries the trace
// length (and is ended even when the evaluation panics, so the trace
// stays complete).
func evaluateGuarded(ctx context.Context, refs []trace.Ref, pass *core.L1Pass, cfg core.Config, opt Options, sp *span.Span) (p Point, err error) {
	n := uint64(len(refs))
	if pass != nil {
		n = pass.Refs()
	}
	sim := sp.Child("simulate", span.Attr{Key: "refs", Value: strconv.FormatUint(n, 10)})
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
	if pass == nil {
		return evaluateStream(ctx, trace.NewSliceStream(refs), cfg, opt)
	}
	return evaluateWith(cfg, opt, func() (core.Stats, error) {
		return pass.Replay(ctx, cfg, opt.Metrics)
	})
}

// l1Group is a run of a sweep's pending configurations that share one L1
// pass: the core.ReplayEligible configurations with one L1 geometry, or
// a single configuration that simulates directly and has no pass.
type l1Group struct {
	jobs   []job
	replay bool
	// pass is set by recordPasses before any job runs, and dropped once
	// left, the count of unfinished jobs, falls to zero.
	pass *core.L1Pass
	left atomic.Int32
}

// job is one pending configuration and its index in the sweep.
type job struct {
	i   int
	cfg core.Config
}

// queued is a job handed to the workers with its group.
type queued struct {
	job   job
	group *l1Group
}

// groupByL1 groups the eligible jobs by L1 geometry, in order of first
// appearance. Every other job, and every job whose L1s are invalid, forms
// a group of its own.
func groupByL1(jobs []job) []*l1Group {
	type geometry struct{ l1i, l1d cache.Config }
	var groups []*l1Group
	index := map[geometry]*l1Group{}
	for _, j := range jobs {
		l1s := core.Config{L1I: j.cfg.L1I, L1D: j.cfg.L1D}
		if !core.ReplayEligible(j.cfg) || l1s.Validate() != nil {
			groups = append(groups, &l1Group{jobs: []job{j}})
			continue
		}
		key := geometry{j.cfg.L1I, j.cfg.L1D}
		g := index[key]
		if g == nil {
			g = &l1Group{replay: true}
			index[key] = g
			groups = append(groups, g)
		}
		g.jobs = append(g.jobs, j)
	}
	return groups
}

// chunkRefs caps the references of one chunk of the trace stage, and
// chunkBuffers is how many chunks exist at once: enough for the generator
// to keep running while the recorder walks the chunk before.
const (
	chunkRefs    = 64 << 10
	chunkBuffers = 4
)

// keptPrealloc caps the capacity the kept trace allocates up front (4M
// references, as trace.Collect caps it), so a bogus Options.Refs cannot
// allocate gigabytes before the stream proves that long.
const keptPrealloc = 1 << 22

// recordPasses is the sweep-level trace stage, which runs before the
// workers start. A generator goroutine fills recycled chunks of the
// workload's trace, and the calling goroutine feeds each chunk to one
// core.L1Recorder, which records the pass of every replay group in a
// single walk. Each replay group gets its pass. The whole trace is kept,
// and returned, only when some group simulates directly.
//
// A done ctx stops the stage; it then returns with the passes unset, and
// the workers, which check ctx before every job, take none. A panic in
// the generator is raised again on the calling goroutine, where a panic
// in the recorder surfaces anyway.
func recordPasses(ctx context.Context, w spec.Workload, groups []*l1Group, opt Options, sw *span.Span) []trace.Ref {
	var (
		cfgs   []core.Config
		direct bool
	)
	for _, g := range groups {
		if g.replay {
			cfgs = append(cfgs, g.jobs[0].cfg)
		} else {
			direct = true
		}
	}
	rec, err := core.NewL1Recorder(cfgs)
	if err != nil {
		panic(err) // groupByL1 admits only valid direct-mapped L1s
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // also stops the generator when the recorder panics

	free := make(chan []trace.Ref, chunkBuffers)
	full := make(chan []trace.Ref, chunkBuffers)
	var genPanic any
	gs := sw.Child("generate")
	go func() {
		var n uint64 // references generated
		defer close(full)
		defer func() {
			if r := recover(); r != nil {
				genPanic = fmt.Sprintf("%v\n\ntrace generator goroutine:\n%s", r, debug.Stack())
			}
			gs.Annotate("refs", strconv.FormatUint(n, 10))
			gs.End()
		}()
		st := w.Stream(opt.Refs)
		for made := 0; n < opt.Refs; {
			var buf []trace.Ref
			if made < chunkBuffers {
				buf, made = make([]trace.Ref, min(chunkRefs, opt.Refs)), made+1
			} else {
				select {
				case buf = <-free:
				case <-ctx.Done():
					return
				}
			}
			buf = buf[:min(uint64(cap(buf)), opt.Refs-n)]
			k := trace.Fill(st, buf)
			n += uint64(k)
			if k > 0 {
				select {
				case full <- buf[:k]:
				case <-ctx.Done():
					return
				}
			}
			if k < len(buf) {
				return
			}
		}
	}()

	rs := sw.Child("l1-record", span.Attr{Key: "passes", Value: strconv.Itoa(len(cfgs))})
	var passSpans []*span.Span
	for _, cfg := range cfgs {
		passSpans = append(passSpans, rs.Child("l1-pass", span.Attr{Key: "l1", Value: cache.FormatSize(cfg.L1I.Size)}))
	}
	defer func() {
		for _, ps := range passSpans {
			ps.End()
		}
		rs.End()
	}()
	var refs []trace.Ref
	if direct {
		refs = make([]trace.Ref, 0, min(opt.Refs, keptPrealloc))
	}
	for buf := range full {
		// Record fails only once ctx is done; the generator then stops,
		// and the chunks it already sent are drained unread.
		if ctx.Err() == nil {
			if direct {
				refs = append(refs, buf...)
			}
			_ = rec.Record(ctx, buf)
		}
		free <- buf // never blocks: free holds every chunk
	}
	if genPanic != nil {
		panic(genPanic)
	}
	if ctx.Err() != nil {
		return nil
	}
	passes := rec.Finish()
	for _, g := range groups {
		if g.replay {
			g.pass, passes = passes[0], passes[1:]
		}
	}
	return refs
}
