package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
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
		mu        sync.Mutex
		completed = make([]Point, 0, total)
		errs      []error
		done      int
		skipped   int
		failed    int
	)
	report := func(ev ProgressEvent) {
		if opt.Progress != nil {
			opt.Progress(ev)
		}
	}

	var pending []core.Config
	for _, cfg := range cfgs {
		label := Label(cfg)
		if p, ok := stored(opt.Store, w.Name, cfg, opt); ok {
			completed = append(completed, p)
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
		pending = append(pending, cfg)
	}

	if len(pending) > 0 && ctx.Err() == nil {
		eopt := opt
		eopt.TraceParent = sw
		e := NewEvaluator(w, eopt, pending)
		// The stage runs before the workers, which check ctx, start.
		_ = e.stage(ctx)
		met.queueDepth.Set(int64(len(pending)))
		// The workers take pending in order. Configs enumerates by L1
		// size, so each group's result is dropped early.
		var next atomic.Int64
		var wg sync.WaitGroup
		for n := 0; n < min(opt.Workers, len(pending)); n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := next.Add(1) - 1
					if i >= int64(len(pending)) {
						return
					}
					cfg := pending[i]
					met.queueDepth.Add(-1)
					label := Label(cfg)
					opt.Events.Emit(obs.Event{Type: obs.EventConfigStart, Workload: w.Name, Label: label})
					cs := sw.Child("config", span.Attr{Key: "label", Value: label})
					start := time.Now()
					p, err := e.evaluate(ctx, cfg, cs)
					dur := time.Since(start)
					mu.Lock()
					done++
					switch {
					case err == nil:
						completed = append(completed, p)
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
							opt.Store.Put(Key(w.Name, cfg, opt), p)
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
				}
			}()
		}
		wg.Wait()
		e.close()
		met.queueDepth.Set(0)
	}

	SortByArea(completed)
	sw.Annotate("done", strconv.Itoa(done))
	sw.Annotate("skipped", strconv.Itoa(skipped))
	sw.Annotate("failed", strconv.Itoa(failed))
	doneEv := obs.Event{
		Type: obs.EventSweepDone, Workload: w.Name,
		Done: done, Total: total, Skipped: skipped, Failed: failed,
	}
	err := errors.Join(errs...)
	if cerr := ctx.Err(); cerr != nil {
		sw.Annotate("interrupted", cerr.Error())
		doneEv.Err = cerr.Error()
		err = fmt.Errorf("sweep: %s interrupted after %d/%d configurations: %w",
			w.Name, len(completed), total, cerr)
	}
	sw.End()
	manifest := doneEv
	manifest.Type, manifest.Fingerprint = obs.EventRunManifest, opt.Fingerprint()
	opt.Events.Emit(doneEv)
	opt.Events.Emit(manifest)
	return completed, err
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
// A non-nil f is the follower of the configuration's group: the attempt
// takes its replay instead of simulating the whole hierarchy over refs,
// or, when refs is nil too, over w's stream afresh.
func evaluateOne(ctx context.Context, w spec.Workload, refs []trace.Ref, f *follower, cfg core.Config, opt Options, met *runMetrics, parent *span.Span) (Point, error) {
	var err error
	// A negative Retries still makes the one attempt, so a ConfigError
	// always carries the cause of a real failure.
	for attempt := 0; attempt <= max(opt.Retries, 0); attempt++ {
		as := parent.Child("attempt", span.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
		var p Point
		p, err = evaluateGuarded(ctx, w, refs, f, cfg, opt, as)
		if err == nil {
			as.End()
			p.Workload = w.Name
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
				Type: obs.EventConfigRetry, Workload: w.Name, Label: Label(cfg),
				Attempt: attempt + 1, Err: err.Error(),
			})
		}
		as.End()
	}
	return Point{}, &ConfigError{Label: Label(cfg), Workload: w.Name, Cause: err}
}

// evaluateGuarded is one evaluation attempt: panics become errors and the
// per-configuration timeout is applied. The simulation proper is traced
// as a "simulate" child of the attempt span, which carries the trace
// length (and is ended even when the evaluation panics, so the trace
// stays complete). With a follower, the attempt waits for its group's
// replay under the timeout; a group whose follower was stopped before
// it finished, once its result was dropped, is simulated afresh.
func evaluateGuarded(ctx context.Context, w spec.Workload, refs []trace.Ref, f *follower, cfg core.Config, opt Options, sp *span.Span) (p Point, err error) {
	sim := sp.Child("simulate", span.Attr{Key: "refs", Value: strconv.FormatUint(opt.Refs, 10)})
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
	if f != nil {
		p, err := evaluateWith(cfg, opt, func() (core.Stats, error) {
			return f.result(ctx, cfg, opt.Metrics)
		})
		if !errors.Is(err, errStopped) {
			return p, err
		}
	}
	if refs != nil {
		return evaluateStream(ctx, trace.NewSliceStream(refs), cfg, opt)
	}
	return evaluateStream(ctx, w.Stream(opt.Refs), cfg, opt)
}

// Evaluator evaluates one workload's configurations, from a set fixed
// when it is built, with RunContext's per-configuration hardening and
// without its enumeration; RunContext evaluates through one too. Its
// first evaluation runs the trace stage: one walk of the trace records
// the L1 pass of every geometry of the core.ReplayEligible
// configurations, and one follower per geometry replays the pass into
// the L2s of its configurations while it records; the others run
// System.Run over the trace, kept only for them. An eligible
// configuration's evaluation waits for its follower's result and prices
// it. A group's result is dropped once its configurations are evaluated
// or skipped. A stage cut short by its caller's context stops its
// followers and records nothing, so the next evaluation runs it again.
// An Evaluator is safe for concurrent use; internal/service shares one
// per (job, workload).
type Evaluator struct {
	w      spec.Workload
	opt    Options
	met    *runMetrics
	groups []*l1Group
	group  map[core.Config]*l1Group
	// tokens holds one slot per Options.Workers: a follower holds one
	// while it walks a chunk.
	tokens chan struct{}

	// mu guards every group's left and fol.
	mu sync.Mutex

	// staging, a one-slot semaphore held while the stage runs (a waiter
	// can give up when its context ends), guards staged, refs and fols.
	staging chan struct{}
	staged  bool
	refs    []trace.Ref
	fols    []*follower
}

// l1Group is a run of configurations that share one L1 pass: the
// valid core.ReplayEligible configurations with one L1 geometry, or a
// single configuration that simulates directly and has no pass. left counts
// the evaluations still to come; the stage records only groups with
// some, and sets fol, the group's follower, which is stopped and
// dropped when left falls to zero.
type l1Group struct {
	cfgs   []core.Config
	replay bool
	left   int
	fol    *follower
}

// follower is the outcome of one group's replay behind the recorder:
// res, one core.Replayed per configuration of cfgs, or err, set before
// done is closed. err is errStopped once cancel stopped the follower,
// or the panicError of a panic in it.
type follower struct {
	cfgs   []core.Config
	cancel context.CancelFunc
	done   chan struct{}
	res    []core.Replayed
	err    error
}

// errStopped is the result of a follower stopped before it finished.
var errStopped = errors.New("sweep: replay stopped")

// followTestHook, when non-nil, runs on a follower's goroutine before it
// walks each chunk. Tests use it to make a follower panic.
var followTestHook func()

// NewEvaluator prepares an evaluator of the configurations cfgs for one
// workload. Only the per-configuration fields of opt participate
// (Timeout, Retries, Refs, Tech, OffChipNS, DualPorted, Metrics, Events,
// Trace, TraceParent, Chaos), and Workers, which bounds the followers
// walking at once; the enumeration fields are ignored. The eligible
// configurations are grouped by L1 geometry; every other one, and every
// invalid one, is a group of its own.
func NewEvaluator(w spec.Workload, opt Options, cfgs []core.Config) *Evaluator {
	opt = opt.withDefaults()
	e := &Evaluator{
		w: w, opt: opt, met: newRunMetrics(opt.Metrics),
		group:   make(map[core.Config]*l1Group, len(cfgs)),
		tokens:  make(chan struct{}, max(opt.Workers, 1)),
		staging: make(chan struct{}, 1),
	}
	index := map[core.Config]*l1Group{} // by L1 geometry
	for _, cfg := range cfgs {
		key := core.Config{L1I: cfg.L1I, L1D: cfg.L1D}
		g := index[key]
		if !core.ReplayEligible(cfg) || cfg.Validate() != nil {
			g = &l1Group{}
			e.groups = append(e.groups, g)
		} else if g == nil {
			g = &l1Group{replay: true}
			index[key] = g
			e.groups = append(e.groups, g)
		}
		g.cfgs = append(g.cfgs, cfg)
		g.left++
		e.group[cfg] = g
	}
	return e
}

// Workload reports the workload the evaluator replays.
func (e *Evaluator) Workload() spec.Workload { return e.w }

// Evaluate runs one configuration of the evaluator's set with
// RunContext's per-configuration hardening and returns the priced point.
// Failures arrive as *ConfigError exactly as RunContext records them,
// and so does a configuration outside the set; a ctx cancellation is
// returned unwrapped. Options.Timeout does not bound the stage, nor the
// replay work done during it. With Options.Trace set, the stage, its
// followers' "replay" spans and each call's "config" span, with its
// attempt children, nest under Options.TraceParent.
func (e *Evaluator) Evaluate(ctx context.Context, cfg core.Config) (Point, error) {
	if e.group[cfg] == nil {
		return Point{}, &ConfigError{Label: Label(cfg), Workload: e.w.Name,
			Cause: errors.New("not among the evaluator's configurations")}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cs := e.opt.Trace.Start(e.opt.TraceParent, "config",
		span.Attr{Key: "workload", Value: e.w.Name},
		span.Attr{Key: "label", Value: Label(cfg)})
	p, err := e.evaluate(ctx, cfg, cs)
	if err != nil {
		cs.Annotate("error", err.Error())
	}
	cs.End()
	return p, err
}

// Skip counts off one evaluation of cfg, a member of the set, that will
// not happen, as an evaluation that ran would be counted: a stage yet to
// run does not record a group with no evaluations to come, and a
// group's result is dropped once it has none. The service skips the
// tasks of cancelled jobs this way.
func (e *Evaluator) Skip(cfg core.Config) {
	if g := e.group[cfg]; g != nil {
		e.countOff(g)
	}
}

// evaluate evaluates cfg, a member of the set, after the stage, with its
// attempts traced under cs; once cfg's group result is dropped, it
// simulates.
func (e *Evaluator) evaluate(ctx context.Context, cfg core.Config, cs *span.Span) (Point, error) {
	g := e.group[cfg]
	defer e.countOff(g)
	if err := e.stage(ctx); err != nil {
		return Point{}, err
	}
	e.mu.Lock()
	f := g.fol
	e.mu.Unlock()
	return evaluateOne(ctx, e.w, e.refs, f, cfg, e.opt, e.met, cs)
}

// countOff counts one evaluation of g off, stopping and dropping its
// follower after the last.
func (e *Evaluator) countOff(g *l1Group) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g.left--; g.left == 0 && g.fol != nil {
		g.fol.cancel()
		g.fol = nil
	}
}

// stage runs the trace stage unless it has run. It returns ctx's error,
// with nothing recorded, when ctx ends first.
func (e *Evaluator) stage(ctx context.Context) (err error) {
	select {
	case e.staging <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.staging }()
	if !e.staged {
		e.refs, err = e.record(ctx)
		e.staged = err == nil
	}
	return err
}

// close stops every follower the stage started, as those of a cancelled
// RunContext, whose groups keep evaluations that will not come, and
// waits for them to end.
func (e *Evaluator) close() {
	e.staging <- struct{}{}
	defer func() { <-e.staging }()
	for _, f := range e.fols {
		f.cancel()
		<-f.done
	}
}

// result waits for the follower's replay of cfg and adds its counters to
// reg. It returns ctx's error if ctx ends first, including before the
// wait, so a timeout that has passed fails whether or not the replay is
// done.
func (f *follower) result(ctx context.Context, cfg core.Config, reg *obs.Registry) (core.Stats, error) {
	if err := ctx.Err(); err != nil {
		return core.Stats{}, err
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return core.Stats{}, ctx.Err()
	}
	if f.err != nil {
		return core.Stats{}, f.err
	}
	r := f.res[slices.Index(f.cfgs, cfg)]
	r.Instrument(reg)
	return r.Stats, nil
}

// chunkRefs caps the references of one chunk of the trace stage, and
// chunkBuffers is how many chunks exist at once: enough for the generator
// to keep running while the recorder walks the chunk before. The four
// chunks of 4Ki references take 256 KB, which stays in one core's
// cache.
const (
	chunkRefs    = 4 << 10
	chunkBuffers = 4
)

// keptPrealloc caps the capacity the kept trace allocates up front (4M
// references, as trace.Collect caps it), so a bogus Options.Refs cannot
// allocate gigabytes before the stream proves that long.
const keptPrealloc = 1 << 22

// record walks w's trace once for the groups with evaluations to come.
// A generator goroutine fills recycled chunks of the trace, and the
// calling goroutine feeds each chunk to one core.L1Recorder, which
// records the pass of every replay group in a single walk, while one
// follower per replay group replays its pass behind it. The whole trace
// is kept, and returned, only when some group simulates directly. The
// stage's spans nest under Options.TraceParent.
//
// A done ctx stops the stage, which then stops its followers and returns
// ctx's error with no follower set. A panic in the generator is raised
// again on the calling goroutine, where a panic in the recorder
// surfaces anyway; the followers are stopped then too.
func (e *Evaluator) record(ctx context.Context) ([]trace.Ref, error) {
	opt := e.opt
	var (
		replay []*l1Group
		groups [][]core.Config
		direct bool
	)
	e.mu.Lock()
	for _, g := range e.groups {
		switch {
		case g.left <= 0:
		case g.replay:
			replay = append(replay, g)
			groups = append(groups, g.cfgs)
		default:
			direct = true
		}
	}
	e.mu.Unlock()
	rec, err := core.NewL1Recorder(groups)
	if err != nil {
		panic(err) // NewEvaluator groups only valid, eligible configurations by L1s
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // also stops the generator when the recorder panics

	fols := make([]*follower, len(replay))
	for i, g := range replay {
		fols[i] = e.follow(g, rec.Followers()[i])
	}
	recorded := false
	defer func() {
		if !recorded {
			for _, f := range fols {
				f.cancel()
				<-f.done
			}
		}
	}()

	free := make(chan []trace.Ref, chunkBuffers)
	full := make(chan []trace.Ref, chunkBuffers)
	var genPanic any
	gs := opt.Trace.Start(opt.TraceParent, "generate")
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
		st := e.w.Stream(opt.Refs)
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

	rs := opt.Trace.Start(opt.TraceParent, "l1-record", span.Attr{Key: "passes", Value: strconv.Itoa(len(replay))})
	var passSpans []*span.Span
	for _, g := range replay {
		passSpans = append(passSpans, rs.Child("l1-pass", span.Attr{Key: "l1", Value: cache.FormatSize(g.cfgs[0].L1I.Size)}))
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec.Finish()
	recorded = true
	e.fols = fols
	e.mu.Lock()
	for i, g := range replay {
		if g.left > 0 {
			g.fol = fols[i]
		} else {
			fols[i].cancel()
		}
	}
	e.mu.Unlock()
	return refs, nil
}

// follow starts g's follower, which replays g's pass through fl, with a
// "replay" span that carries the group's L1 size, its count of L2s and
// the miss events it walked. It runs until it has replayed the whole
// pass or is cancelled, holding one of e.tokens while it walks each
// chunk.
func (e *Evaluator) follow(g *l1Group, fl *core.Follower) *follower {
	l2s := 0
	for _, cfg := range g.cfgs {
		if cfg.TwoLevel() {
			l2s++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{cfgs: g.cfgs, cancel: cancel, done: make(chan struct{})}
	rs := e.opt.Trace.Start(e.opt.TraceParent, "replay",
		span.Attr{Key: "l1", Value: cache.FormatSize(g.cfgs[0].L1I.Size)},
		span.Attr{Key: "l2s", Value: strconv.Itoa(l2s)})
	go func() {
		defer close(f.done)
		defer func() {
			if r := recover(); r != nil {
				f.err = panicError{v: r}
			}
			rs.Annotate("events", strconv.FormatUint(fl.Events(), 10))
			if f.err != nil {
				rs.Annotate("error", f.err.Error())
			}
			rs.End()
		}()
		for {
			more, err := fl.Wait(ctx)
			if err != nil {
				f.err = errStopped
				return
			}
			if !more {
				break
			}
			select {
			case e.tokens <- struct{}{}:
			case <-ctx.Done():
				f.err = errStopped
				return
			}
			e.step(fl)
		}
		f.res = fl.Results()
	}()
	return f
}

// step walks the follower's next chunk and gives its token back, even
// when the walk panics.
func (e *Evaluator) step(fl *core.Follower) {
	defer func() { <-e.tokens }()
	if followTestHook != nil {
		followTestHook()
	}
	fl.Step()
}
