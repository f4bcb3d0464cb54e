// Package service is the sweep/evaluation job service: a Manager
// accepts design-space jobs (a set of workloads × one option set), fans
// the individual (workload, configuration) evaluations out across a
// bounded shared worker pool, and memoizes every completed point in a
// content-addressed result Store keyed by sweep.Key. Repeated and
// overlapping jobs — the same L1 sizes under a different L2 list, the
// paper's area-budget question asked twice — reuse prior work instead of
// re-simulating, turning the paper's sweep from a batch run into a cheap
// repeated query.
//
// Each evaluation runs with the per-configuration hardening of
// sweep.RunContext (panic isolation, Options.Timeout, Options.Retries)
// via sweep.Evaluator, RunContext's own evaluation path: one per (job,
// workload), over the tasks the job enqueues, so they share one trace
// stage and every eligible configuration takes the replay of its L1
// pass. Identical evaluations requested by concurrently running jobs
// are coalesced onto one in-flight task. Job and task lifecycle is
// observable through internal/obs metrics and events (see obs.go); the
// HTTP API over the manager lives in http.go and is served by
// cmd/served.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/core"
	"twolevel/internal/model"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// ErrClosed reports a Submit to a manager that is shutting down.
var ErrClosed = errors.New("service: manager is shut down")

// ErrOverloaded reports a Submit refused by admission control (the
// active-job or queue limit is reached). The HTTP layer maps it to 429
// with a Retry-After; callers should back off and resubmit.
var ErrOverloaded = errors.New("service: overloaded, retry later")

// ErrTraceDropped is returned by Job.WriteTrace for a job whose span
// tree the manager no longer keeps.
var ErrTraceDropped = errors.New("service: the job's trace is no longer kept")

// KeptTraces is how many finished jobs' span trees the manager keeps:
// once a job finishes beyond it, the tree of the oldest finished job is
// dropped from the tracer, so a long-running service holds a bounded
// trace whatever number of jobs it serves.
const KeptTraces = 32

// Config parameterizes a Manager.
type Config struct {
	// Workers is the shared evaluation worker-pool size (default:
	// GOMAXPROCS). The pool is global to the manager, not per job, so a
	// burst of jobs queues rather than oversubscribing the host.
	Workers int
	// Store is the memoized result store (default: a new unbounded
	// in-memory one). Pass a DiskStore to make memoized work survive
	// restarts.
	Store Store
	// Metrics, when non-nil, receives the service instrumentation (see
	// the Metric* constants) plus the sweep- and simulator-level metrics
	// of every evaluation. Nil costs nothing.
	Metrics *obs.Registry
	// Events, when non-nil, receives the job/task lifecycle journal (see
	// the Event* constants) plus the sweep-level evaluation events. When
	// nil the manager keeps a private broadcast-only bus so the SSE
	// progress streams (GET /v1/jobs/{id}/events) work regardless; pass
	// one explicitly to also journal the events to a sink.
	Events *obs.EventLog
	// StreamHeartbeat is the keepalive interval of SSE progress streams:
	// a comment line is written whenever the interval passes without an
	// event, so idle streams survive proxies and dead clients are
	// detected. 0 means the 15s default.
	StreamHeartbeat time.Duration
	// Trace, when non-nil, receives the span tree of every job (job →
	// evaluate → store-{hit,miss}, and the evaluations' own spans: the
	// trace stage and config → attempt → simulate). When nil the manager
	// keeps a private tracer so GET /v1/jobs/{id}/trace works regardless;
	// pass one explicitly to also export the whole service trace
	// (cmd/served -trace). Either way the manager drops a finished job's
	// tree once KeptTraces jobs have finished after it.
	Trace *span.Tracer

	// MaxActiveJobs bounds jobs submitted but not yet terminal; a Submit
	// over the limit is refused with ErrOverloaded (0 = unlimited).
	MaxActiveJobs int
	// MaxQueue bounds evaluations waiting for a worker; a Submit while
	// the queue is at the limit is refused with ErrOverloaded (0 =
	// unlimited).
	MaxQueue int
	// MaxTimeout clamps the per-job deadline clients request
	// (JobRequest.Timeout, the HTTP layer's X-Timeout). When set, it also
	// applies to jobs that request no deadline at all, so no job can
	// outlive it (0 = no server-side deadline).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the POST /v1/jobs request body; larger bodies
	// are refused with 413 (default 1MB).
	MaxBodyBytes int64
	// Chaos, when non-nil, is handed to every evaluation
	// (sweep.ChaosSiteEvaluate), so fault-injection tests and drills
	// exercise the service's retry, failure, and deadline paths with real
	// injected faults. Nil costs nothing.
	Chaos *chaos.Injector
}

// JobRequest names the work of one job: every configuration of the
// option set's design space, evaluated under every listed workload.
type JobRequest struct {
	// Workloads are spec workload names (at least one).
	Workloads []string
	// Options fixes the design space and evaluation parameters. The
	// runtime plumbing fields (Progress, Store, Metrics, Events, Trace,
	// TraceParent, Chaos, Workers) are owned by the manager and ignored
	// here.
	Options sweep.Options
	// Mode selects the serving tier: ModeExact (or "", the default)
	// simulates only; ModeFast additionally serves instant approximate
	// points from the analytical model, refined in the background by the
	// exact evaluations (see fast.go).
	Mode string
	// Timeout, when positive, is the job's whole-lifetime deadline: a
	// job still running when it expires moves to StateDeadlineExceeded
	// with whatever points completed. Clamped by Config.MaxTimeout.
	Timeout time.Duration
}

// State is a job's lifecycle state.
type State string

// Job states. A job is Running from submission (fully cached jobs jump
// straight to Done) and reaches exactly one terminal state.
const (
	StateRunning          State = "running"
	StateDone             State = "done"
	StateFailed           State = "failed"
	StateCancelled        State = "cancelled"
	StateDeadlineExceeded State = "deadline_exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateRunning }

// Manager owns the worker pool, the result store, and the job table.
type Manager struct {
	store  Store
	met    *svcMetrics
	events *obs.EventLog
	reg    *obs.Registry
	tracer *span.Tracer
	chaos  *chaos.Injector
	// profiles is the shared reuse-distance profile cache of the fast
	// tier: every fast job's predictor draws on it, so each workload is
	// profiled at most once per option fingerprint across all jobs.
	profiles *model.Cache

	maxActive  int
	maxQueue   int
	maxTimeout time.Duration
	maxBody    int64
	heartbeat  time.Duration
	// workersN is the pool size; retryAfter scales its hint by it.
	workersN int
	// traceMu guards traced, the finished jobs whose span trees the
	// tracer keeps, oldest first.
	traceMu sync.Mutex
	traced  []*Job
	// active counts non-terminal jobs for admission. It is atomic, not
	// m.mu-guarded, because the terminal transition (closeLocked) runs
	// under j.mu — sometimes while Submit already holds m.mu — and the
	// lock order is strictly m.mu before j.mu.
	active atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond // signals queue pushes and draining
	queue    []*task
	inflight map[string]*task
	jobs     map[string]*Job
	order    []string // job ids in submission order
	seq      int
	closed   bool // Submit refused
	draining bool // workers exit once the queue is empty

	workers    sync.WaitGroup
	activeJobs sync.WaitGroup
	// predictors tracks fast-tier predictor goroutines (one per fast
	// job); Shutdown waits for them after the jobs drain.
	predictors sync.WaitGroup
}

// task is one (workload, configuration) evaluation wanted by one or
// more jobs. Identical evaluations are coalesced: the task carries every
// waiting job and delivers its result to all of them.
type task struct {
	key    string
	cfg    core.Config
	eval   *sweep.Evaluator
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	waiters []*Job
	// claimed is set once the task's evaluation is counted off its
	// evaluator: when a worker starts it, or when it is orphaned before
	// that and skipped.
	claimed bool
}

// dropWaiter removes j from the waiter list, cancelling the task's
// context once nobody is left wanting the result. A task orphaned
// before a worker starts it is skipped off its evaluator at once, so a
// trace stage that runs later does not read for it, and one that is
// running stops the task's direct reader.
func (t *task) dropWaiter(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, w := range t.waiters {
		if w == j {
			t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
			break
		}
	}
	if len(t.waiters) == 0 {
		t.cancel()
		if !t.claimed {
			t.claimed = true
			t.eval.Skip(t.cfg)
		}
	}
}

// join adds j as a waiter, refusing if the task was already cancelled
// (its evaluation would report the stale cancellation, not a result).
func (t *task) join(j *Job) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ctx.Err() != nil {
		return false
	}
	t.waiters = append(t.waiters, j)
	return true
}

// takeWaiters snapshots and clears the waiter list for delivery.
func (t *task) takeWaiters() []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.waiters
	t.waiters = nil
	return w
}

// New builds a manager and starts its worker pool.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return newManager(cfg)
}

// newManager builds a manager with a pool of exactly cfg.Workers
// workers. With none, queued evaluations wait until a test runs them.
func newManager(cfg Config) *Manager {
	if cfg.Store == nil {
		cfg.Store = NewStore(0)
	}
	if cfg.Trace == nil {
		// Job traces are part of the HTTP API, so tracing is always on;
		// per-evaluation spans are far too coarse to matter next to the
		// simulations they time.
		cfg.Trace = span.NewTracer()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Events == nil {
		// A broadcast-only bus: never serialized, feeds only live SSE
		// subscribers, so progress streaming works without a journal.
		cfg.Events = obs.NewEventBus()
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 15 * time.Second
	}
	m := &Manager{
		store:      cfg.Store,
		met:        newSvcMetrics(cfg.Metrics),
		events:     cfg.Events,
		reg:        cfg.Metrics,
		tracer:     cfg.Trace,
		chaos:      cfg.Chaos,
		maxActive:  cfg.MaxActiveJobs,
		maxQueue:   cfg.MaxQueue,
		maxTimeout: cfg.MaxTimeout,
		maxBody:    cfg.MaxBodyBytes,
		heartbeat:  cfg.StreamHeartbeat,
		workersN:   cfg.Workers,
		profiles:   model.NewCache(),
		inflight:   make(map[string]*task),
		jobs:       make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	m.met.workers.Set(int64(cfg.Workers))
	m.met.ready.Set(1)
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// Store exposes the manager's result store (read-mostly: the envelope
// endpoint queries it).
func (m *Manager) Store() Store { return m.store }

// StoreErr reports the result store's sticky persistence failure, if
// the store tracks one (DiskStore's segment poisoning). A non-nil value
// means completed points may not survive a restart: /readyz serves 503
// and the service_store_poisoned gauge reads 1 so operators see the
// degradation instead of discovering it at the next crash.
func (m *Manager) StoreErr() error {
	if e, ok := m.store.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// updateStoreHealth mirrors the store's sticky error into the
// service_store_poisoned gauge; called after every store write.
func (m *Manager) updateStoreHealth() {
	if m.StoreErr() != nil {
		m.met.storePoisoned.Set(1)
	} else {
		m.met.storePoisoned.Set(0)
	}
}

// retryAfter derives the 429 Retry-After hint from the current queue
// depth: the deeper the backlog per worker, the longer shed clients are
// told to stay away. A deterministic per-caller jitter (hashed from
// token, typically the job fingerprint) spreads retries across the
// window so a burst of shed clients does not resynchronize into a
// retry storm — yet any given client always gets the same hint for the
// same request, keeping shed behavior reproducible.
func (m *Manager) retryAfter(token string) int {
	m.mu.Lock()
	depth := len(m.queue)
	m.mu.Unlock()
	per := m.workersN
	if per <= 0 {
		per = 1
	}
	base := 1 + depth/(4*per)
	if base > 30 {
		base = 30
	}
	spread := base/2 + 1
	jitter := int(crc32.ChecksumIEEE([]byte(token)) % uint32(spread))
	return base + jitter
}

// Ready reports whether the manager still accepts jobs: true from New
// until Shutdown or Close begins. GET /readyz serves this.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

// WriteTrace exports the whole service trace — the span trees of the
// running jobs and of the last KeptTraces finished ones — as one Chrome
// trace_event JSON document (cmd/served -trace).
func (m *Manager) WriteTrace(w io.Writer) error { return m.tracer.Export(w) }

// Submit validates and enqueues one job, returning it immediately; the
// job runs on the shared worker pool. Evaluations already memoized in
// the store complete instantly; evaluations identical to one already in
// flight for another job coalesce onto it.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	if len(req.Workloads) == 0 {
		return nil, fmt.Errorf("service: job names no workloads")
	}
	ws := make([]spec.Workload, 0, len(req.Workloads))
	for _, name := range req.Workloads {
		w, err := spec.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		ws = append(ws, w)
	}
	opt := req.Options
	// The manager owns the runtime plumbing: its own observability sinks
	// and fault injector, no progress hook. Evaluations memoize through
	// the manager's store, not opt.Store, which only RunContext reads.
	opt.Metrics = m.reg
	opt.Events = m.events
	opt.Chaos = m.chaos
	opt.Progress = nil
	cfgs := sweep.Configs(opt)
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("service: options enumerate no configurations")
	}
	// A job is admitted whole or not at all: a geometry the simulator
	// rejects fails here, not once per configuration after a 202.
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("service: configuration %s: %w", sweep.Label(cfg), err)
		}
	}
	timeout := req.Timeout
	if m.maxTimeout > 0 && (timeout <= 0 || timeout > m.maxTimeout) {
		timeout = m.maxTimeout
	}
	mode := req.Mode
	switch mode {
	case "", ModeExact:
		mode = ModeExact
	case ModeFast:
	default:
		return nil, fmt.Errorf("service: unknown mode %q (want %q or %q)", req.Mode, ModeExact, ModeFast)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if (m.maxActive > 0 && int(m.active.Load()) >= m.maxActive) ||
		(m.maxQueue > 0 && len(m.queue) >= m.maxQueue) {
		m.met.jobsShed.Inc()
		m.events.Emit(obs.Event{Type: EventJobShed, Fingerprint: opt.Fingerprint()})
		return nil, ErrOverloaded
	}
	m.seq++
	j := &Job{
		id:          fmt.Sprintf("j%d", m.seq),
		m:           m,
		workloads:   append([]string(nil), req.Workloads...),
		fingerprint: opt.Fingerprint(),
		mode:        mode,
		created:     time.Now(),
		state:       StateRunning,
		total:       len(ws) * len(cfgs),
		doneCh:      make(chan struct{}),
		evalSpans:   make(map[*task]*span.Span),
		approx:      make(map[string]sweep.Point),
	}
	j.root = m.tracer.Start(nil, "job",
		span.Attr{Key: "id", Value: j.id},
		span.Attr{Key: "workloads", Value: strings.Join(j.workloads, ",")},
		span.Attr{Key: "fingerprint", Value: j.fingerprint},
		span.Attr{Key: "mode", Value: mode})
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.activeJobs.Add(1)
	m.active.Add(1)
	m.met.jobsSubmitted.Inc()
	m.met.jobsActive.Add(1)
	m.events.Emit(obs.Event{
		Type: EventJobSubmitted, Job: j.id,
		Fingerprint: j.fingerprint, Total: j.total,
	})

	// The job's evaluations, the trace stage included, trace under its
	// span.
	opt.Trace = m.tracer
	opt.TraceParent = j.root
	var enqueued int
	var fastWork []fastItem
	for _, w := range ws {
		// One evaluator per workload serves the tasks this job enqueues,
		// so they share one trace stage; store hits and coalesced tasks
		// have theirs already.
		var fresh []*task
		for _, cfg := range cfgs {
			key := sweep.Key(w.Name, cfg, opt)
			label := sweep.Label(cfg)
			es := j.root.Child("evaluate",
				span.Attr{Key: "workload", Value: w.Name},
				span.Attr{Key: "label", Value: label})
			if p, ok := m.store.Get(key); ok {
				es.Child("store-hit").End()
				es.Annotate("outcome", "cached")
				es.End()
				j.cached++
				j.done++
				j.points = append(j.points, p)
				m.met.storeHits.Inc()
				m.events.Emit(obs.Event{
					Type: EventTaskCached, Job: j.id,
					Workload: w.Name, Label: p.Label,
				})
				continue
			}
			es.Child("store-miss").End()
			m.met.storeMisses.Inc()
			if t, ok := m.inflight[key]; ok && t.join(j) {
				es.Annotate("coalesced", "true")
				j.evalSpans[t] = es
				j.pending++
				j.coalesced++
				j.tasks = append(j.tasks, t)
				if mode == ModeFast {
					fastWork = append(fastWork, fastItem{t: t, w: w})
				}
				m.met.coalesced.Inc()
				m.events.Emit(obs.Event{
					Type: EventTaskCoalesced, Job: j.id,
					Workload: w.Name, Label: label,
				})
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			t := &task{key: key, cfg: cfg, ctx: ctx, cancel: cancel, waiters: []*Job{j}}
			j.evalSpans[t] = es
			m.inflight[key] = t
			m.queue = append(m.queue, t)
			j.pending++
			j.tasks = append(j.tasks, t)
			if mode == ModeFast {
				fastWork = append(fastWork, fastItem{t: t, w: w})
			}
			fresh = append(fresh, t)
		}
		enqueued += len(fresh)
		if len(fresh) > 0 {
			evalCfgs := make([]core.Config, len(fresh))
			for i, t := range fresh {
				evalCfgs[i] = t.cfg
			}
			// Workers take tasks under m.mu, which Submit holds.
			eval := sweep.NewEvaluator(w, opt, evalCfgs)
			for _, t := range fresh {
				t.eval = eval
			}
		}
	}
	m.met.queueDepth.Add(int64(enqueued))
	if enqueued > 0 {
		m.cond.Broadcast()
	}
	if j.pending == 0 {
		// Every evaluation was memoized: the job is already done.
		j.mu.Lock()
		j.finalizeLocked()
		j.mu.Unlock()
		return j, nil
	}
	if timeout > 0 {
		j.mu.Lock()
		j.expireTimer = time.AfterFunc(timeout, j.expire)
		j.mu.Unlock()
	}
	if len(fastWork) > 0 {
		// The predictor covers every evaluation not satisfied by the
		// store; its context dies with the job (closeLocked).
		pctx, cancel := context.WithCancel(context.Background())
		j.mu.Lock()
		if j.state.Terminal() {
			cancel() // the deadline already fired; don't start dead work
		} else {
			j.predictCancel = cancel
		}
		j.mu.Unlock()
		m.predictors.Add(1)
		go j.predictFast(pctx, fastWork, opt)
	}
	return j, nil
}

// Job looks a job up by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// worker is one pool goroutine: it pops tasks until the manager drains.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.draining {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		m.met.queueDepth.Add(-1)
		m.runTask(t)
	}
}

// runTask evaluates one task and delivers the result to every waiting
// job. Completed points enter the store before the task leaves the
// in-flight table, so a concurrent Submit always sees the key in one of
// the two (no duplicate evaluation window).
func (m *Manager) runTask(t *task) {
	defer t.cancel()
	t.mu.Lock()
	orphaned := t.claimed
	t.claimed = true
	t.mu.Unlock()
	if orphaned {
		// Every interested job was cancelled while the task was queued,
		// and the last one's dropWaiter skipped it off its evaluator;
		// skip the evaluation entirely.
		m.mu.Lock()
		if m.inflight[t.key] == t {
			delete(m.inflight, t.key)
		}
		m.mu.Unlock()
		return
	}
	p, err := t.eval.Evaluate(t.ctx, t.cfg)
	m.completeTask(t, p, err)
}

// completeTask is runTask's completion tail: it stores a successful
// point, retires the task and delivers the result to every waiting job.
func (m *Manager) completeTask(t *task, p sweep.Point, err error) {
	m.mu.Lock()
	if err == nil {
		m.store.Put(t.key, p)
		m.met.storeSize.Set(int64(m.store.Len()))
	}
	// A cancelled task may have been superseded in the in-flight table by
	// a fresh one for the same key; only remove our own entry.
	if m.inflight[t.key] == t {
		delete(m.inflight, t.key)
	}
	m.mu.Unlock()
	m.updateStoreHealth()

	waiters := t.takeWaiters()
	switch {
	case err == nil:
		m.met.tasksDone.Inc()
	case t.ctx.Err() != nil && len(waiters) == 0:
		// Aborted because the last waiter was cancelled mid-evaluation;
		// nobody is owed a delivery.
		return
	default:
		m.met.tasksFailed.Inc()
	}
	for _, j := range waiters {
		j.deliver(t, p, err)
	}
}

// Shutdown drains the manager gracefully: new submissions are refused
// immediately, running jobs get until ctx expires to finish, then
// whatever remains is cancelled. It returns ctx.Err() if the deadline
// cut jobs off, nil on a clean drain. The worker pool has exited when
// Shutdown returns.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	// Unready from the first instant of the drain, so load balancers
	// stop routing before submissions start bouncing off ErrClosed.
	m.met.ready.Set(0)

	drained := make(chan struct{})
	go func() {
		m.activeJobs.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		for _, j := range m.Jobs() {
			j.Cancel()
		}
		<-drained
	}

	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.workers.Wait()
	// Every job is terminal, so every predictor context is cancelled;
	// wait for the goroutines to notice and exit.
	m.predictors.Wait()
	return err
}

// Close shuts the manager down immediately, cancelling every running
// job.
func (m *Manager) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Shutdown(ctx) //nolint:errcheck // the deadline is intentionally expired
}

// Job is one submitted design-space job.
type Job struct {
	id          string
	m           *Manager
	workloads   []string
	fingerprint string
	mode        string
	created     time.Time

	// root is the job's trace span; evalSpans holds the open "evaluate"
	// child for every task the job still awaits (ended on delivery or at
	// the terminal transition). Both live on the manager's tracer.
	// traceDropped is set once the manager drops the job's tree.
	root         *span.Span
	traceDropped atomic.Bool

	mu        sync.Mutex
	state     State
	total     int
	cached    int
	coalesced int
	done      int
	failed    int
	pending   int
	points    []sweep.Point
	errs      []string
	tasks     []*task
	evalSpans map[*task]*span.Span
	// approx holds the fast tier's approximate stand-ins, keyed by task
	// key; each exact delivery refines (removes) its entry, and the
	// terminal transition clears the rest (see fast.go).
	approx        map[string]sweep.Point
	predictCancel context.CancelFunc
	finished      time.Time
	doneCh        chan struct{}
	// expireTimer enforces the job's deadline; stopped at any terminal
	// transition so expired timers never outlive their job.
	expireTimer *time.Timer
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// deliver records one task outcome; the last delivery finalizes the
// job.
func (j *Job) deliver(t *task, p sweep.Point, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if es := j.evalSpans[t]; es != nil {
		if err != nil {
			es.Annotate("outcome", "failed")
			es.Annotate("error", err.Error())
		} else {
			es.Annotate("outcome", "ok")
		}
		j.refineLocked(t, es, p, err)
		es.End()
		delete(j.evalSpans, t)
	}
	j.pending--
	// The task event is emitted under j.mu, before finalizeLocked closes
	// Done, so a stream that drains on Done has already received it.
	ev := obs.Event{Type: EventTaskDone, Job: j.id, Workload: t.eval.Workload().Name, Label: sweep.Label(t.cfg)}
	if err != nil {
		j.failed++
		j.errs = append(j.errs, err.Error())
		ev.Type, ev.Err = EventTaskError, err.Error()
	} else {
		j.done++
		j.points = append(j.points, p)
	}
	j.m.events.Emit(ev)
	if j.pending == 0 {
		j.finalizeLocked()
	}
}

// finalizeLocked moves the job to its terminal success state. Caller
// holds j.mu; the job must not already be terminal.
func (j *Job) finalizeLocked() {
	sweep.SortByArea(j.points)
	if j.failed > 0 {
		j.state = StateFailed
		j.m.met.jobsFailed.Inc()
	} else {
		j.state = StateDone
		j.m.met.jobsDone.Inc()
	}
	j.closeLocked(EventJobDone)
}

// Cancel moves a running job to the cancelled state. Queued evaluations
// the job alone wanted are abandoned (a running one is aborted at its
// next cancellation check); evaluations shared with other jobs continue
// for them. Cancel reports whether this call performed the transition.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = StateCancelled
	tasks := j.tasks
	j.m.met.jobsCancelled.Inc()
	j.closeLocked(EventJobCancelled)
	j.mu.Unlock()
	for _, t := range tasks {
		t.dropWaiter(j)
	}
	return true
}

// expire moves a job past its deadline to StateDeadlineExceeded, with
// whatever points completed. Like Cancel, evaluations the job alone
// wanted are abandoned; shared ones continue for their other jobs.
func (j *Job) expire() {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = StateDeadlineExceeded
	j.errs = append(j.errs, fmt.Sprintf("deadline exceeded with %d/%d evaluations done", j.done, j.total))
	tasks := j.tasks
	j.m.met.jobsExpired.Inc()
	j.closeLocked(EventJobExpired)
	j.mu.Unlock()
	for _, t := range tasks {
		t.dropWaiter(j)
	}
}

// closeLocked performs the shared terminal-state bookkeeping: timestamp,
// completion signal, metrics, trace spans, and the lifecycle event.
// Caller holds j.mu and has already set the terminal state.
func (j *Job) closeLocked(event string) {
	if j.expireTimer != nil {
		j.expireTimer.Stop()
	}
	if j.predictCancel != nil {
		j.predictCancel()
		j.predictCancel = nil
	}
	// Approximations die with the job: terminal result documents are
	// exact-only on every path (done, failed, cancelled, expired).
	clear(j.approx)
	// The manager keeps every job for status queries, and each task's
	// evaluator holds its workload's reader results until its last task
	// is done. Cancel and expire have already taken their snapshot of the
	// tasks.
	j.tasks = nil
	// Evaluations still open (cancellation, shutdown) end with the job,
	// marked with the state that cut them off.
	for t, es := range j.evalSpans {
		es.Annotate("outcome", string(j.state))
		es.End()
		delete(j.evalSpans, t)
	}
	j.root.Annotate("state", string(j.state))
	j.root.Annotate("done", fmt.Sprintf("%d/%d", j.done, j.total))
	j.root.End()
	j.m.keepTrace(j)
	j.finished = time.Now()
	close(j.doneCh)
	j.m.activeJobs.Done()
	j.m.active.Add(-1)
	j.m.met.jobsActive.Add(-1)
	j.m.met.jobSeconds.Observe(j.finished.Sub(j.created).Seconds())
	j.m.events.Emit(obs.Event{
		Type: event, Job: j.id, Fingerprint: j.fingerprint,
		Done: j.done, Total: j.total, Failed: j.failed, Skipped: j.cached,
		DurNS: j.finished.Sub(j.created).Nanoseconds(),
	})
}

// keepTrace files j, just finished, among the jobs whose span trees the
// tracer keeps, and drops the tree of the oldest beyond KeptTraces.
func (m *Manager) keepTrace(j *Job) {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	m.traced = append(m.traced, j)
	if len(m.traced) > KeptTraces {
		old := m.traced[0]
		m.traced = slices.Delete(m.traced, 0, 1)
		old.traceDropped.Store(true)
		m.tracer.Drop(old.root.ID())
	}
}

// WriteTrace exports the job's span subtree (job → evaluate →
// store-{hit,miss}, the trace stage, config → attempt → simulate) as a
// Chrome trace_event JSON document — the same document GET
// /v1/jobs/{id}/trace serves once the job is terminal. It returns
// ErrTraceDropped, and writes nothing, once KeptTraces jobs have
// finished after this one.
func (j *Job) WriteTrace(w io.Writer) error {
	if j.traceDropped.Load() {
		return ErrTraceDropped
	}
	return j.m.tracer.ExportSubtree(w, j.root.ID())
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done exposes the completion signal (closed on any terminal state).
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Points returns the completed points so far, sorted by area exactly as
// sweep.Run sorts them. For a job in StateDone this is the full design
// space; for a running, failed, or cancelled job it is the completed
// subset.
func (j *Job) Points() []sweep.Point {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]sweep.Point, len(j.points))
	copy(out, j.points)
	sweep.SortByArea(out)
	return out
}

// Status is a point-in-time JSON-ready snapshot of a job.
type Status struct {
	ID          string   `json:"id"`
	State       State    `json:"state"`
	Workloads   []string `json:"workloads"`
	Fingerprint string   `json:"fingerprint"`
	// Mode is the serving tier: "exact" or "fast".
	Mode  string `json:"mode"`
	Total int    `json:"total"`
	Done  int    `json:"done"`
	// Approx counts the fast tier's approximate points currently
	// standing in for pending evaluations (always 0 for exact jobs and
	// for terminal jobs).
	Approx    int        `json:"approx,omitempty"`
	Cached    int        `json:"cached"`
	Coalesced int        `json:"coalesced,omitempty"`
	Failed    int        `json:"failed,omitempty"`
	Pending   int        `json:"pending"`
	Created   time.Time  `json:"created"`
	Finished  *time.Time `json:"finished,omitempty"`
	Errors    []string   `json:"errors,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:          j.id,
		State:       j.state,
		Workloads:   append([]string(nil), j.workloads...),
		Fingerprint: j.fingerprint,
		Mode:        j.mode,
		Total:       j.total,
		Done:        j.done,
		Approx:      len(j.approx),
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Failed:      j.failed,
		Pending:     j.pending,
		Created:     j.created,
		Errors:      append([]string(nil), j.errs...),
	}
	if !j.finished.IsZero() {
		fin := j.finished
		s.Finished = &fin
	}
	return s
}

// EnvelopeAt answers the paper's headline question from memoized
// results: over the given points, the Pareto staircase and the fastest
// configuration whose area fits the budget. ok is false when no point
// fits.
func EnvelopeAt(points []sweep.Point, budget float64) (best sweep.Point, env []sweep.Point, ok bool) {
	env = sweep.Envelope(points)
	best, ok = sweep.BestAtArea(env, budget)
	return best, env, ok
}

// sortPointsStable orders points deterministically for JSON rendering.
func sortPointsStable(points []sweep.Point) {
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Workload != points[j].Workload {
			return points[i].Workload < points[j].Workload
		}
		return points[i].AreaRbe < points[j].AreaRbe
	})
}
