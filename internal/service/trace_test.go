package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"twolevel/internal/obs/span"
	"twolevel/internal/sweep"
)

// spanIndex groups a tracer snapshot for tree assertions.
type spanIndex struct {
	byID   map[uint64]span.Data
	byName map[string][]span.Data
}

func indexSpans(spans []span.Data) spanIndex {
	ix := spanIndex{byID: map[uint64]span.Data{}, byName: map[string][]span.Data{}}
	for _, d := range spans {
		ix.byID[d.ID] = d
		ix.byName[d.Name] = append(ix.byName[d.Name], d)
	}
	return ix
}

// TestJobSpanTree pins the service's span shape: a fresh job yields
// job → evaluate → store-miss, its trace stage (job → generate, job →
// l1-record → l1-pass, once per L1 size), job → replay once per L1 size
// and job → config → attempt → simulate per evaluation, and a
// resubmitted identical job yields job → evaluate → store-hit with the
// evaluate spans marked cached and no stage.
func TestJobSpanTree(t *testing.T) {
	tr := span.NewTracer()
	m := New(Config{Workers: 2, Trace: tr})
	defer m.Close()

	req := JobRequest{Workloads: []string{"gcc1"}, Options: smallOptions()}
	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)

	ix := indexSpans(tr.Snapshot())
	jobs := ix.byName["job"]
	if len(jobs) != 2 {
		t.Fatalf("trace has %d job spans, want 2", len(jobs))
	}
	roots := map[uint64]span.Data{}
	for _, js := range jobs {
		if js.Parent != 0 {
			t.Errorf("job span %d has parent %d, want root", js.ID, js.Parent)
		}
		if got := js.Attr("state"); got != string(StateDone) {
			t.Errorf("job span state attr = %q, want %q", got, StateDone)
		}
		roots[js.ID] = js
	}

	total := j1.Status().Total
	evals := ix.byName["evaluate"]
	if len(evals) != 2*total {
		t.Fatalf("trace has %d evaluate spans, want %d", len(evals), 2*total)
	}
	cached, fresh := 0, 0
	for _, es := range evals {
		if _, ok := roots[es.Parent]; !ok {
			t.Fatalf("evaluate span parent %d is not a job span", es.Parent)
		}
		switch es.Attr("outcome") {
		case "cached":
			cached++
		case "ok":
			fresh++
		default:
			t.Errorf("evaluate span outcome = %q, want cached or ok", es.Attr("outcome"))
		}
	}
	if fresh != total || cached != total {
		t.Errorf("evaluate outcomes: %d ok + %d cached, want %d each", fresh, cached, total)
	}
	// Store probes appear as instant children: every evaluate has exactly
	// one, a miss on the first job and a hit on the resubmission.
	if n := len(ix.byName["store-miss"]); n != total {
		t.Errorf("%d store-miss spans, want %d", n, total)
	}
	if n := len(ix.byName["store-hit"]); n != total {
		t.Errorf("%d store-hit spans, want %d", n, total)
	}
	for _, name := range []string{"store-miss", "store-hit"} {
		for _, s := range ix.byName[name] {
			if p, ok := ix.byID[s.Parent]; !ok || p.Name != "evaluate" {
				t.Errorf("%s span parent is not an evaluate span", name)
			}
		}
	}

	// Job.WriteTrace exports exactly the one job's subtree.
	var buf bytes.Buffer
	if err := j1.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("job trace is not valid JSON: %v", err)
	}
	x := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			x++
		}
	}
	// job + total evaluates + total store probes, the stage (generate,
	// l1-record and one l1-pass per L1 size), one replay per L1 size and
	// total config → attempt → simulate chains, nothing from job 2.
	l1Sizes := len(smallOptions().L1Sizes)
	if want := 1 + 2*total + 2 + 2*l1Sizes + 3*total; x != want {
		t.Errorf("job subtree exports %d spans, want %d", x, want)
	}
	j1Root := ix.byName["job"][0].ID
	for name, want := range map[string]int{"generate": 1, "l1-record": 1, "l1-pass": l1Sizes, "replay": l1Sizes, "config": total, "attempt": total, "simulate": total} {
		if n := len(ix.byName[name]); n != want {
			t.Errorf("%d %s spans, want %d", n, name, want)
		}
	}
	for _, name := range []string{"generate", "l1-record", "replay", "config"} {
		for _, s := range ix.byName[name] {
			if s.Parent != j1Root {
				t.Errorf("%s span parent %d is not the first job's span %d", name, s.Parent, j1Root)
			}
		}
	}
}

// TestAPITrace is the acceptance contract for the trace endpoint: a
// terminal job serves its span subtree as Chrome trace_event JSON, and
// the document GET /v1/jobs/{id}/trace serves matches Job.WriteTrace.
func TestAPITrace(t *testing.T) {
	srv, m := newTestServer(t)
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	pollDone(t, srv.URL, st.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace endpoint served invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	sawJob := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "job" {
			sawJob = true
		}
		if ev.Ph == "X" && (ev.TS == nil || ev.Dur == nil) {
			t.Fatalf("X event %q lacks ts/dur", ev.Name)
		}
	}
	if !sawJob {
		t.Error("trace endpoint document has no job span")
	}

	j, ok := m.Job(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	var direct bytes.Buffer
	if err := j.WriteTrace(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(direct.Bytes())) {
		t.Error("endpoint trace differs from Job.WriteTrace output")
	}

	// An unknown job 404s; a non-terminal job answers 202 with status.
	if resp, err := http.Get(srv.URL + "/v1/jobs/nope/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET trace for unknown job: status %d, want 404", resp.StatusCode)
		}
	}
	body2 := `{"workloads": ["fpppp"], "options": {"refs": 500000, "l1_kb": [1,2,4,8], "l2_kb": [0]}}`
	var st2 Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body2, &st2); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	var probe Status
	code := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+st2.ID+"/trace", "", &probe)
	switch code {
	case http.StatusAccepted:
		if probe.State.Terminal() {
			t.Fatalf("202 with terminal state %s", probe.State)
		}
	case http.StatusOK:
		// The job legitimately finished before the probe.
	default:
		t.Fatalf("GET trace while running: status %d", code)
	}
	doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+st2.ID, "", nil)
}

// TestManagerRetainsRecentTraces runs three windows' worth of jobs, each
// with a trace of its own (every job has a distinct trace length, so no
// store hit shortens its tree): the tracer's span count must stop growing
// once KeptTraces jobs have finished, the trace of a job pushed out of
// the window must answer 404, as an unknown job does, and that of the
// latest job 200.
func TestManagerRetainsRecentTraces(t *testing.T) {
	tr := span.NewTracer()
	m := New(Config{Workers: 2, Trace: tr})
	srv := httptest.NewServer(NewHandler(m))
	defer func() {
		srv.Close()
		m.Close()
	}()
	var jobs []*Job
	var window int // spans held once the window first filled
	for i := 0; i < 3*KeptTraces; i++ {
		opt := sweep.Options{Refs: uint64(1000 + i), L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0, 8 << 10}}
		j, err := m.Submit(JobRequest{Workloads: []string{"gcc1"}, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		jobs = append(jobs, j)
		switch n := tr.Len(); {
		case i+1 == KeptTraces:
			window = n
		case i+1 > KeptTraces && n > window:
			t.Fatalf("after %d jobs the tracer holds %d spans, more than the %d it held after %d", i+1, n, window, KeptTraces)
		}
	}
	if got := len(indexSpans(tr.Snapshot()).byName["job"]); got != KeptTraces {
		t.Errorf("the tracer holds %d job trees, want %d", got, KeptTraces)
	}
	if err := jobs[0].WriteTrace(io.Discard); !errors.Is(err, ErrTraceDropped) {
		t.Errorf("WriteTrace of the first job: %v, want ErrTraceDropped", err)
	}
	for _, c := range []struct {
		j    *Job
		want int
	}{{jobs[0], http.StatusNotFound}, {jobs[len(jobs)-KeptTraces], http.StatusOK}, {jobs[len(jobs)-1], http.StatusOK}} {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + c.j.ID() + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("trace of %s: status %d, want %d", c.j.ID(), resp.StatusCode, c.want)
		}
	}
}
