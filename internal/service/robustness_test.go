package service

// Satellite robustness contracts of the admission and readiness
// surfaces: the 429 Retry-After hint is derived from live queue depth
// (with deterministic per-client jitter, so shed bursts spread out),
// and a poisoned durable store flips /readyz so orchestrators stop
// routing to a node that can no longer persist results.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/sweep"
)

// TestRetryAfterScalesWithQueueDepth: the hint is 1s when idle, grows
// with the backlog per worker, is deterministic for one fingerprint,
// and spreads distinct fingerprints across the window.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	// No workers: the queue only grows, so depth is fully under test
	// control.
	m := idleManager(Config{})
	defer m.Close()

	if got := m.retryAfter("any"); got != 1 {
		t.Fatalf("idle Retry-After = %d, want 1", got)
	}

	j, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: sweep.Options{
		Refs:    1000,
		L1Sizes: []int64{1 << 10, 2 << 10, 4 << 10},
		L2Sizes: []int64{0, 8 << 10, 16 << 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Cancel()

	// 9 queued points, one (virtual) worker: base = 1 + 9/4 = 3 with a
	// jitter window of base/2+1 = 2, so every hint lands in [3, 4].
	const lo, hi = 3, 4
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		tok := fmt.Sprintf("fp-%d", i)
		got := m.retryAfter(tok)
		if got < lo || got > hi {
			t.Fatalf("Retry-After(%q) = %d, want within [%d, %d]", tok, got, lo, hi)
		}
		if again := m.retryAfter(tok); again != got {
			t.Fatalf("Retry-After(%q) not deterministic: %d then %d", tok, got, again)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatalf("16 fingerprints all hashed to the same hint %v; jitter is not spreading", seen)
	}
}

// TestReadyzReportsPoisonedStore: a durable store whose append fails
// keeps serving from memory (sticky Err) but must unready the node —
// /readyz answers 503 with the store error and the
// service_store_poisoned gauge rises.
func TestReadyzReportsPoisonedStore(t *testing.T) {
	in := chaos.New(11)
	in.Install(chaos.Rule{Site: ChaosSiteStoreAppend, Times: 1})
	disk, err := OpenDiskStore(t.TempDir(), DiskStoreOptions{Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := New(Config{Workers: 1, Store: disk, Metrics: reg})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	probe := func() int {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := probe(); code != http.StatusOK {
		t.Fatalf("/readyz with healthy store: %d", code)
	}
	if v := reg.Gauge(MetricStorePoisoned).Value(); v != 0 {
		t.Fatalf("poisoned gauge before fault = %d, want 0", v)
	}

	// The job's first persisted point hits the injected append failure;
	// the job itself still completes (results live in memory).
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	final := pollDone(t, srv.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s, want done despite store poisoning", final.State)
	}

	if code := probe(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with poisoned store: %d, want 503", code)
	}
	if v := reg.Gauge(MetricStorePoisoned).Value(); v != 1 {
		t.Fatalf("poisoned gauge after fault = %d, want 1", v)
	}
	if m.StoreErr() == nil {
		t.Fatal("StoreErr lost the sticky failure")
	}
}
