package service

import (
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// testRefs keeps evaluation cheap; determinism does not depend on trace
// length.
const testRefs = 20_000

// smallOptions is a tiny design space (4 configurations) for lifecycle
// tests.
func smallOptions() sweep.Options {
	return sweep.Options{
		Refs:    testRefs,
		L1Sizes: []int64{1 << 10, 2 << 10},
		L2Sizes: []int64{0, 8 << 10},
	}
}

// idleManager builds a manager with no workers: its jobs' evaluations
// stay queued until the test runs them with runQueued.
func idleManager(cfg Config) *Manager {
	cfg.Workers = 0
	return newManager(cfg)
}

// runQueued runs the evaluation at the head of m's queue as a pool
// worker would, reporting false when the queue is empty.
func runQueued(m *Manager) bool {
	m.mu.Lock()
	if len(m.queue) == 0 {
		m.mu.Unlock()
		return false
	}
	t := m.queue[0]
	m.queue = m.queue[1:]
	m.mu.Unlock()
	m.met.queueDepth.Add(-1)
	m.runTask(t)
	return true
}

// waitJob fails the test if the job does not finish within the deadline.
func waitJob(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID(), err)
	}
}

// TestWorkerPoolDeterminism is the satellite determinism contract: a
// worker-pool service run of the paper sweep must produce byte-identical
// sorted points to sequential sweep.Run for all seven workloads.
func TestWorkerPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full seven-workload sweep comparison")
	}
	m := New(Config{Workers: 4})
	defer m.Close()

	opt := sweep.Options{Refs: testRefs}
	names := spec.Names()
	j, err := m.Submit(JobRequest{Workloads: names, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job state = %s (errors: %v), want done", st.State, st.Errors)
	}
	got := j.Points()

	seqOpt := opt
	seqOpt.Workers = 1
	for _, name := range names {
		w, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := sweep.Run(w, seqOpt)
		have := sweep.Filter(got, func(p sweep.Point) bool { return p.Workload == name })
		sweep.SortByArea(have)
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%s: service points differ from sequential sweep.Run (%d vs %d points)",
				name, len(have), len(want))
		}
		gotJSON := pointsJSON(t, have)
		wantJSON := pointsJSON(t, want)
		if gotJSON != wantJSON {
			t.Fatalf("%s: serialized points not byte-identical", name)
		}
	}
}

func pointsJSON(t *testing.T, points []sweep.Point) string {
	t.Helper()
	var buf1 sbuf
	if err := sweep.SaveJSON(&buf1, points); err != nil {
		t.Fatal(err)
	}
	return buf1.String()
}

type sbuf struct{ b []byte }

func (s *sbuf) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *sbuf) String() string              { return string(s.b) }

// TestResubmitIdenticalJobHitsStore is the acceptance contract: a
// resubmitted identical job completes entirely from the result store,
// observed through the obs counters.
func TestResubmitIdenticalJobHitsStore(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{Workers: 2, Metrics: reg})
	defer m.Close()

	req := JobRequest{Workloads: []string{"gcc1"}, Options: smallOptions()}
	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	if st := j1.Status(); st.State != StateDone || st.Cached != 0 {
		t.Fatalf("first job: state=%s cached=%d, want done/0", st.State, st.Cached)
	}
	hitsBefore := reg.Counter(MetricStoreHits).Value()

	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("resubmitted job state = %s, want done", st.State)
	}
	if st.Cached != st.Total {
		t.Fatalf("resubmitted job cached %d of %d evaluations, want all", st.Cached, st.Total)
	}
	hits := reg.Counter(MetricStoreHits).Value() - hitsBefore
	if hits < 1 || int(hits) != st.Total {
		t.Fatalf("store hits = %d, want %d", hits, st.Total)
	}
	if !reflect.DeepEqual(j1.Points(), j2.Points()) {
		t.Fatal("cached job points differ from original evaluation")
	}
}

// TestOverlappingJobHitsStore: a job sharing part of its design space
// with a completed one reuses the shared points and evaluates only the
// new ones.
func TestOverlappingJobHitsStore(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{Workers: 2, Metrics: reg})
	defer m.Close()

	optA := smallOptions() // L2 sizes {0, 8KB}
	j1, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: optA})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)

	// Same L1 sizes, different L2 list: the two single-level (L2=0)
	// configurations overlap with job 1.
	optB := optA
	optB.L2Sizes = []int64{0, 16 << 10}
	j2, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: optB})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("overlapping job state = %s (errors: %v), want done", st.State, st.Errors)
	}
	if st.Cached != 2 {
		t.Fatalf("overlapping job cached %d evaluations, want 2 (the shared L2=0 configs)", st.Cached)
	}
	if reg.Counter(MetricStoreHits).Value() < 1 {
		t.Fatal("no store hits recorded for the overlapping job")
	}
	if st.Done != st.Total || st.Total != 4 {
		t.Fatalf("overlapping job done=%d total=%d, want 4/4", st.Done, st.Total)
	}
}

// TestConcurrentIdenticalJobsCoalesce: identical jobs in flight at the
// same time share evaluations instead of duplicating them.
func TestConcurrentIdenticalJobsCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{Workers: 1, Metrics: reg})
	defer m.Close()

	req := JobRequest{Workloads: []string{"li"}, Options: smallOptions()}
	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	waitJob(t, j2)
	st1, st2 := j1.Status(), j2.Status()
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("states = %s/%s, want done/done", st1.State, st2.State)
	}
	// Every j2 evaluation was satisfied without new work: from the store
	// (if the task finished before j2 arrived) or by coalescing onto j1's
	// in-flight task.
	if st2.Cached+st2.Coalesced != st2.Total {
		t.Fatalf("j2 cached=%d coalesced=%d of total=%d; wanted no fresh evaluations",
			st2.Cached, st2.Coalesced, st2.Total)
	}
	if done := reg.Counter(MetricTasksDone).Value(); done != uint64(st1.Total) {
		t.Fatalf("worker pool evaluated %d tasks, want %d (no duplicates)", done, st1.Total)
	}
	if !reflect.DeepEqual(j1.Points(), j2.Points()) {
		t.Fatal("coalesced job points differ")
	}
}

// TestCancelJob: DELETE semantics — a cancelled job stops scheduling its
// queued evaluations and reaches the cancelled state; the manager keeps
// serving other jobs.
func TestCancelJob(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{Workers: 1, Metrics: reg})
	defer m.Close()

	// A single worker and a long queue guarantee the job is still
	// running when we cancel it.
	opt := sweep.Options{Refs: 200_000, L1Sizes: []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10}}
	j, err := m.Submit(JobRequest{Workloads: []string{"gcc1", "li"}, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Cancel() {
		t.Fatal("Cancel reported no transition for a running job")
	}
	if j.Cancel() {
		t.Fatal("second Cancel reported a transition")
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatalf("Wait after cancel: %v", err)
	}

	// The manager still runs fresh jobs to completion.
	j2, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: smallOptions()})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("post-cancel job state = %s, want done", st.State)
	}
	if reg.Counter(MetricJobsCancelled).Value() != 1 {
		t.Fatal("cancelled-jobs counter not incremented")
	}
}

// TestFullyCachedSubmitCompletesSynchronously: a job whose whole design
// space is memoized is done before Submit returns.
func TestFullyCachedSubmitCompletesSynchronously(t *testing.T) {
	m := New(Config{Workers: 2})
	defer m.Close()
	req := JobRequest{Workloads: []string{"eqntott"}, Options: smallOptions()}
	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.Done():
	default:
		t.Fatal("fully cached job not done at Submit return")
	}
}

// TestShutdownRefusesNewJobs: after Shutdown the manager refuses work
// but running jobs finished cleanly.
func TestShutdownRefusesNewJobs(t *testing.T) {
	m := New(Config{Workers: 2})
	j, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: smallOptions()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job state after drain = %s, want done", st.State)
	}
	if _, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: smallOptions()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Shutdown: err = %v, want ErrClosed", err)
	}
}

// TestSubmitValidation: bad requests are rejected before any work is
// scheduled.
func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Submit(JobRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := m.Submit(JobRequest{Workloads: []string{"no-such-workload"}, Options: smallOptions()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	opt := smallOptions()
	opt.SingleLevelOnly = true
	opt.TwoLevelOnly = true
	if _, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt}); err == nil {
		t.Fatal("empty design space accepted")
	}
}

// TestStoreEviction: a capped store evicts FIFO and never exceeds cap.
func TestStoreEviction(t *testing.T) {
	s := NewStore(2)
	s.Put("a", sweep.Point{Label: "a"})
	s.Put("b", sweep.Point{Label: "b"})
	s.Put("a", sweep.Point{Label: "a"}) // overwrite must not evict
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	s.Put("c", sweep.Point{Label: "c"})
	if s.Len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", s.Len())
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get("c"); !ok {
		t.Fatal("newest entry missing")
	}
}

// TestFinishedJobsReleaseTraces pins that a terminal job lets go of its
// evaluators: each cold job's evaluator holds the results of its
// workload's trace stage, and the manager keeps every job for status
// queries, so a job that held on to its tasks would pin them forever.
// Twenty finished 200k-reference jobs must grow the live heap by less
// than one trace, while still serving status, points and span trace.
func TestFinishedJobsReleaseTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty 200k-reference evaluations")
	}
	const refs, jobs = 200_000, 20
	m := New(Config{Workers: 2})
	defer m.Close()
	run := func(i int) *Job {
		t.Helper()
		// A distinct trace length per job keeps every job cold.
		opt := sweep.Options{Refs: refs + uint64(i), L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0}}
		j, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		return j
	}
	run(jobs) // warm the generator's shared tables before the baseline

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	finished := make([]*Job, jobs)
	for i := range finished {
		finished[i] = run(i)
	}
	after := heap()
	t.Logf("heap %d -> %d bytes after %d finished jobs", before, after, jobs)
	const oneTrace = refs * 16
	if after > before && after-before >= oneTrace {
		t.Fatalf("%d finished jobs grew the heap by %.1f MiB, want < %.1f MiB (one trace)",
			jobs, float64(after-before)/(1<<20), float64(oneTrace)/(1<<20))
	}
	for _, j := range finished {
		if st := j.Status(); st.State != StateDone || st.Done != 1 {
			t.Fatalf("job %s: state %s, %d done, want done with 1", j.ID(), st.State, st.Done)
		}
		if len(j.Points()) != 1 {
			t.Fatalf("job %s: %d points, want 1", j.ID(), len(j.Points()))
		}
		if err := j.WriteTrace(io.Discard); err != nil {
			t.Fatalf("job %s: WriteTrace: %v", j.ID(), err)
		}
	}
}

// TestCancelDuringStageKeepsSharedTask cancels job A while one of its
// tasks runs the trace stage of A's evaluator, which a task shared with
// job B also needs. The cancelled stage must not be used up: the shared
// task runs the stage again, and B finishes with points byte-identical
// to a fresh sweep's. The re-run stage records only the L1 group the
// shared task still wants: A's orphaned tasks were skipped off the
// evaluator.
func TestCancelDuringStageKeepsSharedTask(t *testing.T) {
	optA := sweep.Options{Refs: 2_000_000, L1Sizes: []int64{1 << 10, 2 << 10}, L2Sizes: []int64{0, 16 << 10}}
	optB := optA
	optB.L1Sizes, optB.L2Sizes = optA.L1Sizes[:1], optA.L2Sizes[:1]
	w, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sweep.RunContext(context.Background(), w, optB)
	if err != nil {
		t.Fatal(err)
	}
	// The cancel lands after a fixed wait; the stage of 2M references
	// outlasts it, but a stalled host can delay the task's start past
	// it, so the scenario is retried until the cancel cuts a stage.
	for attempt := 1; ; attempt++ {
		tr := span.NewTracer()
		m := idleManager(Config{Trace: tr})
		a, err := m.Submit(JobRequest{Workloads: []string{w.Name}, Options: optA})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Submit(JobRequest{Workloads: []string{w.Name}, Options: optB})
		if err != nil {
			t.Fatal(err)
		}
		if st := b.Status(); st.Coalesced != 1 || st.Total != 1 {
			t.Fatalf("job B: %d of %d coalesced, want its one task shared with A", st.Coalesced, st.Total)
		}
		var alone, shared *task
		m.mu.Lock()
		for _, tk := range m.queue {
			tk.mu.Lock()
			n := len(tk.waiters)
			tk.mu.Unlock()
			switch {
			case n == 2:
				shared = tk
			case alone == nil:
				alone = tk
			}
		}
		m.queue = nil
		m.mu.Unlock()
		if shared == nil || alone == nil || shared.eval != alone.eval {
			t.Fatal("A's tasks do not share one evaluator with B's coalesced task")
		}

		ran := make(chan struct{})
		go func() {
			m.runTask(alone)
			close(ran)
		}()
		time.Sleep(20 * time.Millisecond)
		a.Cancel()
		<-ran
		m.runTask(shared)
		waitJob(t, b)
		if st := b.Status(); st.State != StateDone {
			t.Fatalf("job B state = %s (errors %v), want done", st.State, st.Errors)
		}
		if got, want := pointsJSON(t, b.Points()), pointsJSON(t, fresh); got != want {
			t.Fatalf("job B's points differ from a fresh sweep's:\n%s\nwant\n%s", got, want)
		}
		m.Close()

		var gens, recs []span.Data
		for _, d := range tr.Snapshot() {
			switch d.Name {
			case "generate":
				gens = append(gens, d)
			case "l1-record":
				recs = append(recs, d)
			}
		}
		full := strconv.FormatUint(optA.Refs, 10)
		if len(gens) == 2 && gens[0].Attr("refs") != full && gens[1].Attr("refs") == full {
			// A's 2 KB tasks were skipped off the evaluator when A was
			// cancelled, so the re-run stage records the shared 1 KB
			// group alone.
			if len(recs) != 2 || recs[1].Attr("passes") != "1" {
				t.Fatalf("l1-record spans %+v, want the re-run stage's to carry passes=1", recs)
			}
			return
		}
		if attempt == 5 {
			t.Fatalf("in %d attempts the cancel never cut a stage short; last generate spans: %+v", attempt, gens)
		}
	}
}
