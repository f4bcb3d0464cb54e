package service

// SSE edge-case coverage for GET /v1/jobs/{id}/events: the happy path
// (snapshot → task events → terminal state matching the polled status),
// heartbeats on an idle stream, and the three teardown paths — client
// disconnect, job cancel, manager drain — each of which must leave no
// goroutine behind and return the service_progress_streams gauge to 0.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/sweep"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// openStream connects to the job's event stream and returns the
// response plus a channel of parsed events (comments/heartbeats are
// delivered with event "" so tests can observe keepalives).
func openStream(t *testing.T, base, id string) (*http.Response, <-chan sseEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	ch := make(chan sseEvent, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur != (sseEvent{}) {
					ch <- cur
					cur = sseEvent{}
				}
			case strings.HasPrefix(line, ":"):
				ch <- sseEvent{event: "", data: line}
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	return resp, ch
}

// collect reads events until a terminal "state" event or the deadline.
func collect(t *testing.T, ch <-chan sseEvent, deadline time.Duration) (events []sseEvent, terminal *sseEvent) {
	t.Helper()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return events, nil
			}
			events = append(events, e)
			if e.event == "state" {
				return events, &events[len(events)-1]
			}
		case <-timer.C:
			return events, nil
		}
	}
}

// waitStreamsClosed polls until the progress-stream gauge returns to 0
// and the goroutine count falls back to the baseline.
func waitStreamsClosed(t *testing.T, reg *obs.Registry, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Idle keep-alive connections hold transport goroutines that are
		// not stream leaks; drop them before counting.
		http.DefaultClient.CloseIdleConnections()
		streams := reg.Snapshot().Gauges[MetricProgressStreams]
		if streams == 0 && runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams not torn down: gauge=%d goroutines=%d baseline=%d",
				streams, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSSEStreamToTerminal(t *testing.T) {
	reg := obs.NewRegistry()
	// Delay evaluations so the stream reliably connects while tasks are
	// still in flight (the tiny job would otherwise finish in
	// milliseconds and stream only snapshot+state).
	in := chaos.New(1)
	in.Install(chaos.Rule{Site: sweep.ChaosSiteEvaluate, Delay: 50 * time.Millisecond})
	m := New(Config{Workers: 1, Chaos: in, Metrics: reg})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Close()

	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	resp, ch := openStream(t, srv.URL, st.ID)
	defer resp.Body.Close()

	events, term := collect(t, ch, 30*time.Second)
	if term == nil {
		t.Fatalf("no terminal state event; saw %d events", len(events))
	}
	if events[0].event != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", events[0].event)
	}

	// The terminal event must match what polling reports.
	var streamed Status
	if err := json.Unmarshal([]byte(term.data), &streamed); err != nil {
		t.Fatalf("terminal state payload: %v", err)
	}
	polled := pollDone(t, srv.URL, st.ID)
	if streamed.State != polled.State || streamed.Done != polled.Done || streamed.Total != polled.Total {
		t.Fatalf("streamed terminal %+v != polled %+v", streamed, polled)
	}
	if streamed.State != StateDone || streamed.Done != 4 {
		t.Fatalf("terminal = %+v, want done 4/4", streamed)
	}

	// Every evaluation of an uncached job streams one task_done event,
	// before the terminal state.
	labels := map[string]int{}
	for _, e := range events {
		if e.event != "task" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("task payload: %v", err)
		}
		if ev.Type == EventTaskDone {
			if ev.Job != st.ID || ev.Workload != "gcc1" {
				t.Errorf("task_done %+v names the wrong job or workload", ev)
			}
			labels[ev.Label]++
		}
	}
	want := map[string]int{"1:0": 1, "1:8": 1, "2:0": 1, "2:8": 1}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("task_done events per label = %v, want %v", labels, want)
	}
}

func TestSSEUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestSSEHeartbeatAndCancel(t *testing.T) {
	reg := obs.NewRegistry()
	// No workers pull tasks, so the job idles and the stream has nothing
	// to say but heartbeats.
	m := idleManager(Config{Metrics: reg, StreamHeartbeat: 30 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Close()

	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	resp, ch := openStream(t, srv.URL, st.ID)
	defer resp.Body.Close()

	// Snapshot first, then heartbeats while the job idles.
	first := <-ch
	if first.event != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", first.event)
	}
	sawHB := false
	deadline := time.After(5 * time.Second)
	for !sawHB {
		select {
		case e := <-ch:
			if e.event == "" && strings.HasPrefix(e.data, ":") {
				sawHB = true
			}
		case <-deadline:
			t.Fatal("no heartbeat within 5s at a 30ms interval")
		}
	}

	// Cancelling the job must close the stream with its terminal state.
	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, "", nil); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}
	_, term := collect(t, ch, 5*time.Second)
	if term == nil {
		t.Fatal("no terminal state event after cancel")
	}
	var streamed Status
	if err := json.Unmarshal([]byte(term.data), &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.State != StateCancelled {
		t.Fatalf("terminal state = %q, want cancelled", streamed.State)
	}
}

func TestSSEClientDisconnect(t *testing.T) {
	reg := obs.NewRegistry()
	m := idleManager(Config{Metrics: reg})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Close()

	baseline := runtime.NumGoroutine()
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	resp, ch := openStream(t, srv.URL, st.ID)
	if e := <-ch; e.event != "snapshot" {
		t.Fatalf("first event = %q", e.event)
	}
	if got := reg.Snapshot().Gauges[MetricProgressStreams]; got != 1 {
		t.Fatalf("open-stream gauge = %d, want 1", got)
	}

	// Drop the client: the handler must notice and tear down.
	resp.Body.Close()
	waitStreamsClosed(t, reg, baseline)
}

func TestSSEDrainWithOpenStreams(t *testing.T) {
	reg := obs.NewRegistry()
	m := idleManager(Config{Metrics: reg})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	baseline := runtime.NumGoroutine()
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	resp, ch := openStream(t, srv.URL, st.ID)
	defer resp.Body.Close()
	if e := <-ch; e.event != "snapshot" {
		t.Fatalf("first event = %q", e.event)
	}

	// Close cancels running jobs; every open stream must end with the
	// job's terminal state, not hang into the drain.
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()

	_, term := collect(t, ch, 5*time.Second)
	if term == nil {
		t.Fatal("stream did not deliver a terminal event during drain")
	}
	var streamed Status
	if err := json.Unmarshal([]byte(term.data), &streamed); err != nil {
		t.Fatal(err)
	}
	if !streamed.State.Terminal() {
		t.Fatalf("drain terminal state = %q", streamed.State)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("manager Close blocked by open stream")
	}
	waitStreamsClosed(t, reg, baseline)
}

// TestSSEStreamAlreadyTerminal covers connecting to a finished job: the
// snapshot and terminal event arrive immediately and agree.
func TestSSEStreamAlreadyTerminal(t *testing.T) {
	srv, m := newTestServer(t)
	var st Status
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	final := pollDone(t, srv.URL, st.ID)

	resp, ch := openStream(t, srv.URL, st.ID)
	defer resp.Body.Close()
	events, term := collect(t, ch, 5*time.Second)
	if term == nil || events[0].event != "snapshot" {
		t.Fatalf("events = %+v", events)
	}
	var streamed Status
	if err := json.Unmarshal([]byte(term.data), &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.State != final.State || streamed.Done != final.Done {
		t.Fatalf("streamed %+v != final %+v", streamed, final)
	}
	_ = m
}
