package service

import (
	"runtime"
	"testing"
	"time"

	"twolevel/internal/model"
	"twolevel/internal/obs"
	"twolevel/internal/sweep"
)

// waitApprox polls until the job advertises at least n approximate
// points (the predictor is fast but asynchronous).
func waitApprox(t *testing.T, j *Job, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if st := j.Status(); st.Approx >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %d approx points (status %+v)", j.ID(), n, j.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFastJobApproxThenRefine drives the two-tier contract end to end
// on a manager with no workers, which makes the fast→exact handoff fully
// deterministic: the predictor serves every point approximately while
// the exact queue sits untouched, then each exact evaluation the test
// runs by hand refines its stand-in away, and
// the terminal document is byte-identical to an exact-mode job's.
func TestFastJobApproxThenRefine(t *testing.T) {
	reg := obs.NewRegistry()
	m := idleManager(Config{Metrics: reg})
	defer m.Close()

	opt := smallOptions()
	j, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt, Mode: ModeFast})
	if err != nil {
		t.Fatal(err)
	}
	total := j.Status().Total
	waitApprox(t, j, total)

	// The fast window: every point is an approximate stand-in, flagged
	// as such, and none of them touched the memoized store.
	pts := j.PointsWithApprox()
	if len(pts) != total {
		t.Fatalf("PointsWithApprox returned %d points, want %d", len(pts), total)
	}
	for _, p := range pts {
		if !p.Approx() || p.Evaluator != sweep.EvaluatorFast {
			t.Fatalf("fast window point %s/%s not flagged approx (evaluator %q)", p.Workload, p.Label, p.Evaluator)
		}
	}
	if n := m.Store().Len(); n != 0 {
		t.Fatalf("store holds %d points before any exact completion; fast tier polluted it", n)
	}
	if got := reg.Counter(MetricTasksPredicted).Value(); got != uint64(total) {
		t.Errorf("tasks_predicted = %d, want %d", got, total)
	}

	// Drain the exact tier by hand; every completion must refine one
	// approximation away.
	for runQueued(m) {
	}
	waitJob(t, j)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job state = %s (errors: %v), want done", st.State, st.Errors)
	}
	if st.Approx != 0 {
		t.Errorf("terminal job still advertises %d approx points", st.Approx)
	}
	if got := reg.Counter(MetricTasksRefined).Value(); got != uint64(total) {
		t.Errorf("tasks_refined = %d, want %d", got, total)
	}
	if got := reg.Histogram(model.MetricAbsTPIError, model.AbsTPIErrorBounds()).Count(); got != uint64(total) {
		t.Errorf("%s observed %d times, want %d", model.MetricAbsTPIError, got, total)
	}
	for _, p := range j.Points() {
		if p.Approx() {
			t.Fatalf("terminal point %s/%s still approximate", p.Workload, p.Label)
		}
	}

	// The refined document must be byte-identical to one from a plain
	// exact-mode job.
	m2 := New(Config{Workers: 2})
	defer m2.Close()
	j2, err := m2.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	if pointsJSON(t, j.Points()) != pointsJSON(t, j2.Points()) {
		t.Fatal("fast job's refined document differs from the exact-mode document")
	}
}

// TestFastJobCancelMidRefinement is the two-tier cancellation contract:
// deleting a fast job mid-refinement stops its predictor goroutine (no
// leak), drops its approximate points, and leaves the store holding
// only the exact evaluations that actually completed — verified through
// the store hit/miss counters of an identical follow-up submission.
func TestFastJobCancelMidRefinement(t *testing.T) {
	reg := obs.NewRegistry()
	m := idleManager(Config{Metrics: reg})
	defer m.Close()
	base := runtime.NumGoroutine()

	opt := smallOptions()
	j, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt, Mode: ModeFast})
	if err != nil {
		t.Fatal(err)
	}
	total := j.Status().Total
	waitApprox(t, j, 1)

	// Refine exactly one evaluation, then cancel with the rest pending.
	if !runQueued(m) {
		t.Fatal("no exact task queued")
	}
	if !j.Cancel() {
		t.Fatal("Cancel did not transition the job")
	}
	if st := j.Status(); st.Approx != 0 {
		t.Errorf("cancelled job still advertises %d approx points", st.Approx)
	}

	// The predictor must notice the cancellation and exit.
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Store state: exactly the one exact completion, nothing approximate.
	if n := m.Store().Len(); n != 1 {
		t.Fatalf("store holds %d points after one exact completion, want 1", n)
	}
	for _, sp := range m.Store().Points(func(sweep.Point) bool { return true }) {
		if sp.Approx() {
			t.Fatalf("store holds approximate point %s/%s", sp.Workload, sp.Label)
		}
	}

	// An identical exact-mode submission hits the store only for the one
	// completed evaluation: the cancelled fast tier cached nothing else.
	hits0 := reg.Counter(MetricStoreHits).Value()
	misses0 := reg.Counter(MetricStoreMisses).Value()
	j2, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(MetricStoreHits).Value() - hits0; hits != 1 {
		t.Errorf("follow-up job store hits = %d, want 1", hits)
	}
	if misses := reg.Counter(MetricStoreMisses).Value() - misses0; misses != uint64(total-1) {
		t.Errorf("follow-up job store misses = %d, want %d", misses, total-1)
	}
	j2.Cancel()
}
