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
		completed = make([]Point, 0, total)
		errs      []error
		done      int
		skipped   int
		failed    int
	)

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
			if opt.Progress != nil {
				opt.Progress(ProgressEvent{Done: done, Total: total, Label: label, Skipped: true})
			}
			continue
		}
		pending = append(pending, cfg)
	}

	if len(pending) > 0 && ctx.Err() == nil {
		opt.TraceParent = sw
		e := NewEvaluator(w, opt, pending)
		// The stage runs first, which leaves each configuration only its
		// wait and pricing, so they go one by one. Configs enumerates by
		// L1 size, so each group's result is dropped early.
		_ = e.stage(ctx)
		met.queueDepth.Set(int64(len(pending)))
		for _, cfg := range pending {
			if ctx.Err() != nil {
				break
			}
			met.queueDepth.Add(-1)
			label := Label(cfg)
			opt.Events.Emit(obs.Event{Type: obs.EventConfigStart, Workload: w.Name, Label: label})
			cs := sw.Child("config", span.Attr{Key: "label", Value: label})
			start := time.Now()
			p, err := e.evaluate(ctx, cfg, cs)
			dur := time.Since(start)
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
				// The whole run was cancelled mid-evaluation; that is
				// reported once below, not per config.
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
			if opt.Progress != nil {
				opt.Progress(ProgressEvent{Done: done, Total: total, Label: label, Err: err})
			}
		}
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

// Evaluator evaluates one workload's configurations, from a set fixed
// when it is built, with RunContext's per-configuration hardening and
// without its enumeration; RunContext evaluates through one too. Its
// first evaluation runs the trace stage, one walk of the trace through a
// ring of chunks that every group reads: the follower of a group of
// core.ReplayEligible configurations replays the L1 pass the stage
// records into their L2s, and the direct reader of any other
// configuration runs its hierarchy over the chunks. An evaluation waits
// for its group's result, dropped once the group is done, and prices it.
// A stage cut short by its caller's context stops its readers and
// records nothing, so the next evaluation runs it again. An Evaluator is
// safe for concurrent use; internal/service shares one per (job,
// workload).
type Evaluator struct {
	w      spec.Workload
	opt    Options
	met    *runMetrics
	groups []*l1Group
	group  map[core.Config]*l1Group
	// tokens holds one slot per Options.Workers: a reader holds one
	// while it walks a chunk.
	tokens chan struct{}

	// mu guards every group's left and rd.
	mu sync.Mutex

	// staging, a one-slot semaphore held while the stage runs (a waiter
	// can give up when its context ends), guards staged and readers.
	staging chan struct{}
	staged  bool
	readers []*reader
}

// l1Group is a run of configurations that share one reader: the valid
// core.ReplayEligible configurations with one L1 geometry, or a single
// configuration that simulates directly. left counts the evaluations
// still to come; the stage reads only for groups with some, and sets
// rd, which is stopped and dropped when left falls to zero.
type l1Group struct {
	cfgs   []core.Config
	replay bool
	left   int
	rd     *reader
}

// reader is the outcome of one group's reading of the stage, set before
// done is closed: res, one result per configuration of cfgs, or err,
// errStopped once cancel stopped it early or the panicError of a panic.
type reader struct {
	cfgs   []core.Config
	cancel context.CancelFunc
	done   chan struct{}
	res    []result
	err    error
}

// result is one configuration's statistics, and count, which adds the
// counters of its hierarchy to a registry.
type result struct {
	stats core.Stats
	count func(*obs.Registry)
}

// errStopped is the result of a reader stopped before it finished.
var errStopped = errors.New("sweep: reader stopped")

// readTestHook, when non-nil, runs with a reader's configurations before
// it walks each chunk. Tests use it to make a reader panic or wait.
var readTestHook func([]core.Config)

// NewEvaluator prepares an evaluator of the configurations cfgs for one
// workload. Only the per-configuration fields of opt participate
// (Timeout, Retries, Refs, Tech, OffChipNS, DualPorted, Metrics, Events,
// Trace, TraceParent, Chaos), and Workers, which bounds the readers
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
// reading done during it. With Options.Trace set, the stage, its
// readers' "replay" and "read" spans and each call's "config" span,
// with its attempt children, nest under Options.TraceParent.
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
// run does not read for a group with no evaluations to come, and a
// group's reader is stopped, and its result dropped, once it has none.
// The service skips the tasks of cancelled jobs this way.
func (e *Evaluator) Skip(cfg core.Config) {
	if g := e.group[cfg]; g != nil {
		e.countOff(g)
	}
}

// evaluate evaluates cfg, a member of the set, after the stage, with
// panic recovery, the per-configuration timeout, and bounded retries,
// wrapping any final failure in a ConfigError. A parent-context
// cancellation is returned unwrapped (it is a property of the run, not
// of the configuration). Every attempt appears in the trace as its own
// child of parent, so retries show up as sibling "attempt" spans.
func (e *Evaluator) evaluate(ctx context.Context, cfg core.Config, parent *span.Span) (Point, error) {
	g, opt := e.group[cfg], e.opt
	defer e.countOff(g)
	if err := e.stage(ctx); err != nil {
		return Point{}, err
	}
	e.mu.Lock()
	rd := g.rd
	e.mu.Unlock()
	var err error
	// A negative Retries still makes the one attempt, so a ConfigError
	// always carries the cause of a real failure.
	for attempt := 0; attempt <= max(opt.Retries, 0); attempt++ {
		as := parent.Child("attempt", span.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
		var p Point
		p, err = e.attempt(ctx, rd, cfg, as)
		if err == nil {
			as.End()
			p.Workload = e.w.Name
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
			e.met.panics.Inc()
			cause = "panic"
		case errors.Is(err, context.DeadlineExceeded):
			// The parent context is live (checked above), so the deadline
			// that fired was the per-configuration one.
			e.met.timeouts.Inc()
			cause = "timeout"
		}
		if attempt < opt.Retries {
			e.met.retries.Inc()
			as.Annotate("retry_cause", cause)
			opt.Events.Emit(obs.Event{
				Type: obs.EventConfigRetry, Workload: e.w.Name, Label: Label(cfg),
				Attempt: attempt + 1, Err: err.Error(),
			})
		}
		as.End()
	}
	return Point{}, &ConfigError{Label: Label(cfg), Workload: e.w.Name, Cause: err}
}

// attempt is one evaluation attempt: panics become errors and the
// per-configuration timeout is applied. The simulation proper is traced
// as a "simulate" child of the attempt span, which carries the trace
// length (and is ended even when the evaluation panics, so the trace
// stays complete): the wait for rd's result, or, once that is gone (the
// group was dropped, or rd stopped early), a stage of cfg alone.
func (e *Evaluator) attempt(ctx context.Context, rd *reader, cfg core.Config, sp *span.Span) (p Point, err error) {
	opt := e.opt
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
	return evaluateWith(cfg, opt, func() (core.Stats, error) {
		stats, err := rd.result(ctx, cfg, opt.Metrics)
		if !errors.Is(err, errStopped) {
			return stats, err
		}
		f := NewEvaluator(e.w, opt, []core.Config{cfg})
		defer f.close()
		_ = f.stage(ctx) // fails only once ctx is done, which result reports
		return f.group[cfg].rd.result(ctx, cfg, opt.Metrics)
	})
}

// countOff counts one evaluation of g off, stopping and dropping its
// reader after the last.
func (e *Evaluator) countOff(g *l1Group) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g.left--; g.left == 0 && g.rd != nil {
		g.rd.cancel()
		g.rd = nil
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
		err = e.record(ctx)
		e.staged = err == nil
	}
	return err
}

// close stops every reader the stage started, as those of a cancelled
// RunContext, whose groups keep evaluations that will not come, and
// waits for them to end.
func (e *Evaluator) close() {
	e.staging <- struct{}{}
	defer func() { <-e.staging }()
	for _, rd := range e.readers {
		rd.cancel()
		<-rd.done
	}
}

// result waits for the reader's result for cfg and adds its counters to
// reg. It returns ctx's error if ctx ends first, including before the
// wait, so a timeout that has passed fails whether or not the reader is
// done, and errStopped for a nil reader.
func (rd *reader) result(ctx context.Context, cfg core.Config, reg *obs.Registry) (core.Stats, error) {
	if err := ctx.Err(); err != nil {
		return core.Stats{}, err
	}
	if rd == nil {
		return core.Stats{}, errStopped
	}
	select {
	case <-rd.done:
	case <-ctx.Done():
		return core.Stats{}, ctx.Err()
	}
	if rd.err != nil {
		return core.Stats{}, rd.err
	}
	r := rd.res[slices.Index(rd.cfgs, cfg)]
	r.count(reg)
	return r.stats, nil
}

// chunkRefs caps the references of one chunk of the trace stage, and
// chunkBuffers is how many chunks exist at once, the ring: enough for
// the generator to keep running while the recorder and the direct
// readers walk the chunks before. The four chunks of 4Ki references
// take 256 KB, which stays in one core's cache.
const (
	chunkRefs    = 4 << 10
	chunkBuffers = 4
)

// chunk is one buffer of the ring; held counts the recorder and the
// direct readers it was handed to that have yet to release it.
type chunk struct {
	refs []trace.Ref
	held atomic.Int32
}

// release gives c up; the last holder hands it back to the generator.
func (c *chunk) release(free chan<- *chunk) {
	if c.held.Add(-1) == 0 {
		free <- c // never blocks: free holds every chunk
	}
}

// record walks w's trace once for the groups with evaluations to come. A generator goroutine fills the ring's chunks; the calling
// goroutine hands each to every direct reader and feeds it to one
// core.L1Recorder, which records every replay group's pass in one walk
// while the pass's follower replays it behind. A chunk goes back to the
// generator once all of them have released it, so the stage holds the
// ring whatever Options.Refs is. The stage's spans nest under
// Options.TraceParent.
//
// A done ctx stops the stage, which then stops its readers and returns
// ctx's error with no reader set. A panic in the generator is raised
// again on the calling goroutine, where a panic in the recorder
// surfaces anyway; the readers are stopped then too.
func (e *Evaluator) record(ctx context.Context) error {
	opt := e.opt
	var (
		live   []*l1Group
		groups [][]core.Config
	)
	// A direct reader joins its group at once, so that Skip can stop it
	// mid-stage; a follower when the walk ends, as its pass keeps every
	// chunk it publishes until it is walked.
	e.mu.Lock()
	for _, g := range e.groups {
		if g.left > 0 {
			live = append(live, g)
			if g.replay {
				groups = append(groups, g.cfgs)
			}
		}
	}
	rec, err := core.NewL1Recorder(groups)
	if err != nil {
		panic(err) // NewEvaluator groups only valid, eligible configurations by L1s
	}
	free := make(chan *chunk, chunkBuffers)
	full := make(chan *chunk, chunkBuffers)
	for range chunkBuffers {
		free <- &chunk{refs: make([]trace.Ref, min(chunkRefs, opt.Refs))}
	}
	rds, fols := make([]*reader, len(live)), rec.Followers()
	var ins []chan *chunk
	for i, g := range live {
		if g.replay {
			rds[i], fols = e.follow(g, fols[0]), fols[1:]
		} else {
			in := make(chan *chunk, chunkBuffers) // never blocks: it holds every chunk
			rds[i], ins = e.read(g, in, free), append(ins, in)
			g.rd = rds[i]
		}
	}
	e.mu.Unlock()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // also stops the generator when the recorder panics
	recorded := false
	defer func() {
		for _, in := range ins {
			close(in)
		}
		for _, rd := range rds {
			if !recorded {
				rd.cancel()
				<-rd.done
			}
		}
	}()

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
		for n < opt.Refs {
			var c *chunk
			select {
			case c = <-free:
			case <-ctx.Done():
				return
			}
			want := min(uint64(cap(c.refs)), opt.Refs-n)
			k := trace.Fill(st, c.refs[:want])
			n += uint64(k)
			if k > 0 {
				c.refs = c.refs[:k]
				select {
				case full <- c:
				case <-ctx.Done():
					return
				}
			}
			if uint64(k) < want {
				return
			}
		}
	}()

	rs := opt.Trace.Start(opt.TraceParent, "l1-record", span.Attr{Key: "passes", Value: strconv.Itoa(len(groups))})
	var passSpans []*span.Span
	for _, cfgs := range groups {
		passSpans = append(passSpans, rs.Child("l1-pass", span.Attr{Key: "l1", Value: cache.FormatSize(cfgs[0].L1I.Size)}))
	}
	defer func() {
		for _, ps := range passSpans {
			ps.End()
		}
		rs.End()
	}()
	for c := range full {
		c.held.Store(int32(len(ins)) + 1)
		for _, in := range ins {
			in <- c
		}
		// Once ctx is done Record fails, at once after the first time,
		// and the generator stops within the ring's few chunks.
		_ = rec.Record(ctx, c.refs)
		c.release(free)
	}
	if genPanic != nil {
		panic(genPanic)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rec.Finish()
	recorded = true
	e.readers = rds
	e.mu.Lock()
	for i, g := range live {
		if g.left > 0 {
			g.rd = rds[i]
		} else {
			rds[i].cancel()
		}
	}
	e.mu.Unlock()
	return nil
}

// start starts a reader of g: run, on a goroutine of its own, with the
// reader's context, which cancel ends; sp, the reader's span, carries
// its error.
func (e *Evaluator) start(g *l1Group, sp *span.Span, run func(ctx context.Context, rd *reader)) *reader {
	ctx, cancel := context.WithCancel(context.Background())
	rd := &reader{cfgs: g.cfgs, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(rd.done)
		defer func() {
			if r := recover(); r != nil {
				rd.err = panicError{v: r}
			}
			if rd.err != nil {
				sp.Annotate("error", rd.err.Error())
			}
			sp.End()
		}()
		run(ctx, rd)
	}()
	return rd
}

// walk takes one of e.tokens, runs step, a reader's walk of one chunk
// for cfgs, and gives the token back. It returns errStopped if ctx ends
// first, and a panic in step as its panicError.
func (e *Evaluator) walk(ctx context.Context, cfgs []core.Config, step func()) (err error) {
	select {
	case e.tokens <- struct{}{}:
	case <-ctx.Done():
		return errStopped
	}
	defer func() {
		<-e.tokens
		if r := recover(); r != nil {
			err = panicError{v: r}
		}
	}()
	if readTestHook != nil {
		readTestHook(cfgs)
	}
	step()
	return nil
}

// follow starts g's follower, which replays g's pass through fl. Its
// "replay" span carries the group's L1 size, its count of L2s and the
// miss events it walked.
func (e *Evaluator) follow(g *l1Group, fl *core.Follower) *reader {
	l2s := 0
	for _, cfg := range g.cfgs {
		if cfg.TwoLevel() {
			l2s++
		}
	}
	sp := e.opt.Trace.Start(e.opt.TraceParent, "replay",
		span.Attr{Key: "l1", Value: cache.FormatSize(g.cfgs[0].L1I.Size)},
		span.Attr{Key: "l2s", Value: strconv.Itoa(l2s)})
	return e.start(g, sp, func(ctx context.Context, rd *reader) {
		for rd.err == nil && rd.res == nil {
			switch more, err := fl.Wait(ctx); {
			case err != nil:
				rd.err = errStopped
			case more:
				rd.err = e.walk(ctx, g.cfgs, fl.Step)
			default:
				for _, r := range fl.Results() {
					rd.res = append(rd.res, result{r.Stats, r.Instrument})
				}
			}
		}
		sp.Annotate("events", strconv.FormatUint(fl.Events(), 10))
	})
}

// read starts g's direct reader, which runs g's configuration over each
// chunk on in and releases it to free, walked or not: a stopped or
// failed reader keeps releasing, so it never holds the generator up. Its
// System lives for the stage, as a follower's L2 kernels do. Its "read"
// span carries the configuration's label and the references it walked.
func (e *Evaluator) read(g *l1Group, in <-chan *chunk, free chan<- *chunk) *reader {
	cfg := g.cfgs[0]
	sp := e.opt.Trace.Start(e.opt.TraceParent, "read", span.Attr{Key: "label", Value: Label(cfg)})
	return e.start(g, sp, func(ctx context.Context, rd *reader) {
		// The hierarchy counts into a registry of its own, added to
		// Options.Metrics as its result is taken, so that the readers do
		// not contend for the shared counters' cache lines.
		var local *obs.Registry
		if e.opt.Metrics != nil {
			local = obs.NewRegistry()
		}
		sys, err := core.TryNewSystem(cfg)
		if rd.err = err; err == nil { // an invalid configuration's pricing fails first
			sys.Instrument(local)
		}
		var walked uint64
		for c := range in {
			if rd.err == nil {
				rd.err = e.walk(ctx, g.cfgs, func() {
					for _, r := range c.refs {
						sys.Access(r)
					}
					walked += uint64(len(c.refs))
				})
			}
			c.release(free)
		}
		sp.Annotate("refs", strconv.FormatUint(walked, 10))
		if rd.err == nil {
			rd.res = []result{{sys.Stats(), func(reg *obs.Registry) {
				for name, v := range local.Snapshot().Counters {
					reg.Counter(name).Add(v)
				}
			}}}
		}
	})
}
