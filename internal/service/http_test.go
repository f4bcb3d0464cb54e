package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// newTestServer boots a manager and its API on an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m := New(Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv, m
}

// doJSON performs a request and decodes the JSON response into out
// (skipped when out is nil), returning the status code.
func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollDone polls the job status endpoint until the job is terminal.
func pollDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st Status
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
			t.Fatalf("GET job: status %d", code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const tinyJob = `{
  "workloads": ["gcc1"],
  "options": {"refs": 20000, "l1_kb": [1, 2], "l2_kb": [0, 8]}
}`

// TestAPIWalkthrough drives the full lifecycle the README documents:
// submit, poll, fetch the result as a twolevel-sweep/1 document, and ask
// the envelope question.
func TestAPIWalkthrough(t *testing.T) {
	srv, _ := newTestServer(t)

	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("submitted status = %+v, want id and total 4", st)
	}

	final := pollDone(t, srv.URL, st.ID)
	if final.State != StateDone || final.Done != 4 {
		t.Fatalf("final status = %+v, want done 4/4", final)
	}

	// The result endpoint serves the standard persisted-sweep document.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	points, err := sweep.LoadJSON(resp.Body)
	if err != nil {
		t.Fatalf("result is not a loadable sweep document: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("result has %d points, want 4", len(points))
	}

	w, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.Run(w, sweep.Options{
		Refs: 20_000, Workers: 1,
		L1Sizes: []int64{1 << 10, 2 << 10}, L2Sizes: []int64{0, 8 << 10},
	})
	for i := range points {
		if points[i].Label != want[i].Label || points[i].AreaRbe != want[i].AreaRbe || points[i].TPINS != want[i].TPINS {
			t.Fatalf("result point %d = %v, want %v", i, points[i], want[i])
		}
	}

	// The envelope endpoint answers the budget question.
	var env envelopeJSON
	url := fmt.Sprintf("%s/v1/envelope?area=%g&workload=gcc1", srv.URL, want[len(want)-1].AreaRbe*2)
	if code := doJSON(t, http.MethodGet, url, "", &env); code != http.StatusOK {
		t.Fatalf("GET envelope: status %d", code)
	}
	if !env.Feasible || env.Best == nil {
		t.Fatalf("envelope infeasible under a generous budget: %+v", env)
	}
	if len(env.Envelope) == 0 {
		t.Fatal("empty envelope staircase")
	}
	assertStaircase(t, env.Envelope)

	wantEnv := sweep.Envelope(want)
	wantBest, ok := sweep.BestAtArea(wantEnv, want[len(want)-1].AreaRbe*2)
	if !ok || env.Best.Label != wantBest.Label || env.Best.TPINS != wantBest.TPINS {
		t.Fatalf("envelope best = %+v, want %v", env.Best, wantBest)
	}

	// An impossible budget is infeasible, not an error. Decode into a
	// fresh struct: omitempty fields absent from the response would
	// otherwise keep their previous values.
	var tiny envelopeJSON
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/envelope?area=0.5&workload=gcc1", "", &tiny); code != http.StatusOK {
		t.Fatalf("GET tiny envelope: status %d", code)
	}
	if tiny.Feasible || tiny.Best != nil {
		t.Fatalf("sub-minimal budget reported feasible: %+v", tiny)
	}
}

// assertStaircase checks the Pareto-staircase invariant: ascending area,
// strictly descending TPI.
func assertStaircase(t *testing.T, env []pointJSON) {
	t.Helper()
	for i := 1; i < len(env); i++ {
		if env[i].AreaRbe < env[i-1].AreaRbe {
			t.Fatalf("envelope area not ascending at %d: %v", i, env)
		}
		if env[i].TPINS >= env[i-1].TPINS {
			t.Fatalf("envelope TPI not strictly descending at %d: %v", i, env)
		}
	}
}

// TestAPIResultWhileRunning: polling the result URL of an unfinished job
// returns 202 with the status body.
func TestAPIResultWhileRunning(t *testing.T) {
	srv, m := newTestServer(t)
	_ = m
	body := `{"workloads": ["li"], "options": {"refs": 500000, "l1_kb": [1,2,4,8], "l2_kb": [0]}}`
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	var probe Status
	code := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/result", "", &probe)
	switch code {
	case http.StatusAccepted:
		if probe.State.Terminal() {
			t.Fatalf("202 with terminal state %s", probe.State)
		}
	case http.StatusOK:
		// The job legitimately finished before the probe; nothing to
		// assert about the running path.
	default:
		t.Fatalf("GET result while running: status %d", code)
	}
	doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, "", nil)
}

// TestAPICancel: DELETE moves a running job to cancelled and is
// idempotent.
func TestAPICancel(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"workloads": ["fpppp"], "options": {"refs": 500000, "l1_kb": [1,2,4,8], "l2_kb": [0]}}`
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	var del Status
	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, "", &del); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}
	if !del.State.Terminal() {
		t.Fatalf("state after DELETE = %s, want terminal", del.State)
	}
	var again Status
	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, "", &again); code != http.StatusOK {
		t.Fatalf("second DELETE: status %d", code)
	}
	if again.State != del.State {
		t.Fatalf("second DELETE changed state: %s -> %s", del.State, again.State)
	}
}

// TestAPIJobList: submitted jobs appear in submission order.
func TestAPIJobList(t *testing.T) {
	srv, _ := newTestServer(t)
	var first, second Status
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &first)
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &second)
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", "", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != first.ID || list.Jobs[1].ID != second.ID {
		t.Fatalf("job list = %+v, want [%s %s]", list.Jobs, first.ID, second.ID)
	}
	pollDone(t, srv.URL, first.ID)
	pollDone(t, srv.URL, second.ID)
}

// TestAPIErrors: malformed requests map to the right status codes.
func TestAPIErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"workloads": []}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"workloads": ["nope"]}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"workloads": ["gcc1"], "options": {"policy": "weird"}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"workloads": ["gcc1"], "options": {"l2_policy": "weird"}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"workloads": ["gcc1"], "options": {"l1_kb": [-1]}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"workloads": ["gcc1"], "options": {"retries": -1}}`, http.StatusBadRequest},
		{"GET", "/v1/jobs/j999", "", http.StatusNotFound},
		{"GET", "/v1/jobs/j999/result", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs/j999", "", http.StatusNotFound},
		{"GET", "/v1/envelope", "", http.StatusBadRequest},
		{"GET", "/v1/envelope?area=-3", "", http.StatusBadRequest},
		{"GET", "/v1/envelope?area=1000&job=j999", "", http.StatusNotFound},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		code := doJSON(t, c.method, srv.URL+c.path, c.body, &e)
		if code != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, code, c.want)
		}
		if e.Error == "" {
			t.Errorf("%s %s: no error message in body", c.method, c.path)
		}
	}
}

// TestAPIOversizedCacheRejected: a cache size above maxCacheKB is
// refused with a 400 before any job exists, and the same manager then
// completes a normal job. A 2^40 KB L1 used to be accepted and to panic
// in the trace stage, which took the whole process down.
func TestAPIOversizedCacheRejected(t *testing.T) {
	srv, _ := newTestServer(t)
	var e struct {
		Error string `json:"error"`
	}
	body := `{"workloads":["gcc1"],"options":{"refs":1000,"l1_kb":[1099511627776],"l2_kb":[0]}}`
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body, &e); code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("a 2^40 KB L1: status %d, error %q, want 400 with a message", code, e.Error)
	}
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("a normal job after it: status %d", code)
	}
	if st = pollDone(t, srv.URL, st.ID); st.State != StateDone {
		t.Fatalf("a normal job after it ended %s", st.State)
	}
}

// TestToOptionsCapsCacheSizes: toOptions refuses any size above
// maxCacheKB before shifting it to bytes, where 2^54 KB would wrap to a
// zero-byte L1 (whose L2 sizes never end), and takes the cap itself.
func TestToOptionsCapsCacheSizes(t *testing.T) {
	for _, s := range []optionsSpec{
		{L1KB: []int64{1 << 54}},
		{L2KB: []int64{1 << 54}},
		{L1KB: []int64{maxCacheKB + 1}},
		{L2KB: []int64{maxCacheKB + 1}},
	} {
		if _, err := s.toOptions(); err == nil {
			t.Errorf("toOptions accepted l1_kb %v, l2_kb %v", s.L1KB, s.L2KB)
		}
	}
	opt, err := optionsSpec{L1KB: []int64{maxCacheKB}, L2KB: []int64{maxCacheKB}}.toOptions()
	if err != nil || opt.L1Sizes[0] != 64<<20 || opt.L2Sizes[0] != 64<<20 {
		t.Errorf("toOptions at the cap: %v, %v, %v", opt.L1Sizes, opt.L2Sizes, err)
	}
}

// TestAPIEnvelopeAcrossWorkloadsNeedsFilter: mixing workloads in one
// staircase is refused with a usable error.
func TestAPIEnvelopeAcrossWorkloadsNeedsFilter(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"workloads": ["gcc1", "li"], "options": {"refs": 20000, "l1_kb": [1], "l2_kb": [0]}}`
	var st Status
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body, &st)
	pollDone(t, srv.URL, st.ID)

	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/envelope?area=1e9", "", &e); code != http.StatusBadRequest {
		t.Fatalf("mixed-workload envelope: status %d, want 400", code)
	}
	if !strings.Contains(e.Error, "workload") {
		t.Fatalf("error %q does not point at the workload filter", e.Error)
	}

	var env envelopeJSON
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/envelope?area=1e9&workload=li", "", &env); code != http.StatusOK {
		t.Fatalf("filtered envelope: status %d", code)
	}
	if !env.Feasible || env.PointsConsidered != 1 {
		t.Fatalf("filtered envelope = %+v, want feasible over 1 point", env)
	}
}

// TestAPIEnvelopeFromJob: the job-scoped envelope uses only that job's
// points.
func TestAPIEnvelopeFromJob(t *testing.T) {
	srv, _ := newTestServer(t)
	var st Status
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st)
	pollDone(t, srv.URL, st.ID)
	var env envelopeJSON
	url := srv.URL + "/v1/envelope?area=1e9&job=" + st.ID
	if code := doJSON(t, http.MethodGet, url, "", &env); code != http.StatusOK {
		t.Fatalf("job envelope: status %d", code)
	}
	if env.Job != st.ID || !env.Feasible || env.PointsConsidered != 4 {
		t.Fatalf("job envelope = %+v, want feasible over the job's 4 points", env)
	}
	assertStaircase(t, env.Envelope)
}

// TestAPIHealthz: the liveness probe answers.
func TestAPIHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	var h struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/healthz", "", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q", code, h.Status)
	}
}

// TestWorkloadAllShorthand: the single "all" workload expands to the
// paper's seven.
func TestWorkloadAllShorthand(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"workloads": ["all"], "options": {"refs": 20000, "l1_kb": [1], "l2_kb": [0]}}`
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("POST all: status %d", code)
	}
	if !reflect.DeepEqual(st.Workloads, spec.Names()) {
		t.Fatalf("workloads = %v, want %v", st.Workloads, spec.Names())
	}
	final := pollDone(t, srv.URL, st.ID)
	if final.State != StateDone || final.Total != len(spec.Names()) {
		t.Fatalf("final = %+v, want done over %d workloads", final, len(spec.Names()))
	}
}
