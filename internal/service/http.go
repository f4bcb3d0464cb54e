package service

// This file is the HTTP JSON API over the Manager, served by cmd/served:
//
//	POST   /v1/jobs           submit a job (JSON body, see jobSpec;
//	                          "mode":"fast" or ?mode=fast selects the
//	                          two-tier fast serving path)
//	GET    /v1/jobs           list job statuses (id, state, mode, point
//	                          counts), optionally filtered with
//	                          ?state=<running|done|failed|cancelled|
//	                          deadline_exceeded>
//	GET    /v1/jobs/{id}      one job's status
//	GET    /v1/jobs/{id}/events  live progress as Server-Sent Events
//	                          (text/event-stream): a "snapshot" status
//	                          on connect, "task" events as evaluations
//	                          complete (and as the fast tier predicts
//	                          and refines), comment heartbeats, and a
//	                          terminal "state" event matching the polled
//	                          status, after which the stream closes
//	                          (see sse.go for the schema)
//	GET    /v1/jobs/{id}/result  completed points as a twolevel-sweep/1
//	                          document (sweep.SaveJSON; 202 + status
//	                          while the job is still running — except
//	                          fast jobs, which answer 200 immediately
//	                          with exact points merged with approximate
//	                          stand-ins flagged "approx": true)
//	GET    /v1/jobs/{id}/trace   the job's span tree as Chrome
//	                          trace_event JSON, loadable in Perfetto
//	                          (202 + status while the job is running;
//	                          404 once KeptTraces jobs have finished
//	                          after it and its tree is dropped)
//	DELETE /v1/jobs/{id}      cancel a running job
//	GET    /v1/envelope       the paper's budget question: ?area=<rbe>
//	                          [&workload=<name>] [&job=<id>] answers with
//	                          the best configuration under the budget and
//	                          the Pareto staircase, from memoized results
//	GET    /healthz           liveness probe (200 while the process runs)
//	GET    /readyz            readiness probe (503 once shutdown begins)
//
// Request and response bodies are JSON; errors are {"error": "..."} with
// a matching status code.
//
// Admission control: submissions are bounded by Config.MaxBodyBytes
// (413 for oversized bodies) and by Config.MaxActiveJobs/MaxQueue (429
// with a Retry-After when the service is saturated). A client caps its
// job's lifetime with an X-Timeout header or ?timeout= query (a Go
// duration like "30s"), clamped by Config.MaxTimeout; a job that
// outlives its deadline ends in state "deadline_exceeded" with the
// points completed so far.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// jobSpec is the POST /v1/jobs request body.
type jobSpec struct {
	// Workloads lists spec workload names; the single element "all"
	// expands to every workload.
	Workloads []string    `json:"workloads"`
	Options   optionsSpec `json:"options"`
	// Mode selects the serving tier: "exact" (default) or "fast" for
	// instant approximate points refined by background simulation. The
	// ?mode= query overrides it.
	Mode string `json:"mode,omitempty"`
}

// optionsSpec is the wire form of the sweep option fields a client may
// set. Zero values take the sweep defaults (the paper's parameters).
type optionsSpec struct {
	OffChipNS       float64 `json:"offchip_ns,omitempty"`
	L2Assoc         int     `json:"l2_assoc,omitempty"`
	L2Policy        string  `json:"l2_policy,omitempty"` // random, lru, fifo
	Policy          string  `json:"policy,omitempty"`    // conventional, exclusive, inclusive
	DualPorted      bool    `json:"dual_ported,omitempty"`
	Refs            uint64  `json:"refs,omitempty"`
	L1KB            []int64 `json:"l1_kb,omitempty"`
	L2KB            []int64 `json:"l2_kb,omitempty"`
	SingleLevelOnly bool    `json:"single_level_only,omitempty"`
	TwoLevelOnly    bool    `json:"two_level_only,omitempty"`
	LineSize        int     `json:"line_size,omitempty"`
	CfgTimeoutMS    int64   `json:"cfg_timeout_ms,omitempty"`
	Retries         int     `json:"retries,omitempty"`
}

// maxCacheKB caps each l1_kb and l2_kb entry of a job: 64 MB, far above
// the paper's largest cache (256 KB). It is checked before the entry is
// shifted to bytes, so no entry can overflow into a huge or a zero-byte
// cache.
const maxCacheKB = 64 << 10

// toOptions validates the wire form and builds the sweep options.
func (s optionsSpec) toOptions() (sweep.Options, error) {
	opt := sweep.Options{
		OffChipNS:       s.OffChipNS,
		L2Assoc:         s.L2Assoc,
		DualPorted:      s.DualPorted,
		Refs:            s.Refs,
		SingleLevelOnly: s.SingleLevelOnly,
		TwoLevelOnly:    s.TwoLevelOnly,
		LineSize:        s.LineSize,
		Retries:         s.Retries,
	}
	switch s.Policy {
	case "", "conventional":
		opt.Policy = core.Conventional
	case "exclusive":
		opt.Policy = core.Exclusive
	case "inclusive":
		opt.Policy = core.Inclusive
	default:
		return opt, fmt.Errorf("unknown policy %q", s.Policy)
	}
	switch s.L2Policy {
	case "", "random":
		opt.L2Policy = cache.Random
	case "lru":
		opt.L2Policy = cache.LRU
	case "fifo":
		opt.L2Policy = cache.FIFO
	default:
		return opt, fmt.Errorf("unknown l2_policy %q", s.L2Policy)
	}
	for _, kb := range s.L1KB {
		if kb <= 0 || kb > maxCacheKB {
			return opt, fmt.Errorf("bad l1_kb entry %d (want 1 to %d)", kb, maxCacheKB)
		}
		opt.L1Sizes = append(opt.L1Sizes, kb<<10)
	}
	for _, kb := range s.L2KB {
		if kb < 0 || kb > maxCacheKB {
			return opt, fmt.Errorf("bad l2_kb entry %d (want 0 to %d)", kb, maxCacheKB)
		}
		opt.L2Sizes = append(opt.L2Sizes, kb<<10)
	}
	if s.CfgTimeoutMS < 0 {
		return opt, fmt.Errorf("bad cfg_timeout_ms %d", s.CfgTimeoutMS)
	}
	if s.Retries < 0 {
		return opt, fmt.Errorf("bad retries %d", s.Retries)
	}
	opt.Timeout = time.Duration(s.CfgTimeoutMS) * time.Millisecond
	return opt, nil
}

// pointJSON is the compact point rendering of the envelope endpoint
// (the result endpoint uses the full twolevel-sweep/1 document instead).
type pointJSON struct {
	Workload string  `json:"workload"`
	Label    string  `json:"label"`
	L1KB     int64   `json:"l1_kb"`
	L2KB     int64   `json:"l2_kb"`
	AreaRbe  float64 `json:"area_rbe"`
	TPINS    float64 `json:"tpi_ns"`
}

func toPointJSON(p sweep.Point) pointJSON {
	pj := pointJSON{
		Workload: p.Workload,
		Label:    p.Label,
		L1KB:     p.Config.L1I.Size >> 10,
		AreaRbe:  p.AreaRbe,
		TPINS:    p.TPINS,
	}
	if p.Config.TwoLevel() {
		pj.L2KB = p.Config.L2.Size >> 10
	}
	return pj
}

// envelopeJSON is the GET /v1/envelope response.
type envelopeJSON struct {
	AreaBudget float64 `json:"area_budget"`
	Workload   string  `json:"workload,omitempty"`
	Job        string  `json:"job,omitempty"`
	// PointsConsidered counts the memoized points the answer drew on.
	PointsConsidered int `json:"points_considered"`
	// Feasible reports whether any point fits the budget.
	Feasible bool       `json:"feasible"`
	Best     *pointJSON `json:"best,omitempty"`
	// Envelope is the Pareto staircase (ascending area, descending TPI).
	Envelope []pointJSON `json:"envelope"`
}

// NewHandler builds the /v1 API handler over m.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		timeout, err := requestTimeout(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var spec jobSpec
		r.Body = http.MaxBytesReader(w, r.Body, m.maxBody)
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("job body exceeds %d bytes", tooBig.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job: %w", err))
			return
		}
		opt, err := spec.Options.toOptions()
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		names := spec.Workloads
		if len(names) == 1 && names[0] == "all" {
			names = workloadNames()
		}
		mode := spec.Mode
		if q := r.URL.Query().Get("mode"); q != "" {
			mode = q
		}
		j, err := m.Submit(JobRequest{Workloads: names, Options: opt, Mode: mode, Timeout: timeout})
		switch {
		case errors.Is(err, ErrOverloaded):
			// The hint scales with queue depth and carries a
			// deterministic per-fingerprint jitter, so a burst of shed
			// clients spreads out instead of retrying in lockstep.
			w.Header().Set("Retry-After", strconv.Itoa(m.retryAfter(opt.Fingerprint())))
			httpError(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusAccepted, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		want := State(r.URL.Query().Get("state"))
		switch want {
		case "", StateRunning, StateDone, StateFailed, StateCancelled, StateDeadlineExceeded:
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("unknown state filter %q", want))
			return
		}
		jobs := m.Jobs()
		statuses := make([]Status, 0, len(jobs))
		for _, j := range jobs {
			if st := j.Status(); want == "" || st.State == want {
				statuses = append(statuses, st)
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", m.streamEvents)
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		st := j.Status()
		if !st.State.Terminal() {
			if st.Mode == ModeFast {
				// A running fast job already has an answer: the exact
				// points so far merged with the model's approximate
				// stand-ins (flagged "approx": true), served 200 so
				// clients need not special-case the two-tier window. The
				// document converges to the exact-only one as refinement
				// proceeds.
				w.Header().Set("Content-Type", "application/json")
				if err := sweep.SaveJSON(w, j.PointsWithApprox()); err != nil {
					httpError(w, http.StatusInternalServerError, err)
				}
				return
			}
			// Still running: answer with the status so clients can poll
			// the same URL to completion.
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := sweep.SaveJSON(w, j.Points()); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		st := j.Status()
		if !st.State.Terminal() {
			// Spans are recorded as they finish; answer with the status
			// until the tree is complete, exactly like the result
			// endpoint.
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch err := j.WriteTrace(w); {
		case errors.Is(err, ErrTraceDropped):
			httpError(w, http.StatusNotFound, fmt.Errorf("job %q: %w", j.ID(), err))
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		j.Cancel() // idempotent: a terminal job stays in its state
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/envelope", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		budget, err := strconv.ParseFloat(q.Get("area"), 64)
		if err != nil || budget <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("area must be a positive rbe budget, got %q", q.Get("area")))
			return
		}
		workload := q.Get("workload")
		var points []sweep.Point
		resp := envelopeJSON{AreaBudget: budget, Workload: workload}
		if id := q.Get("job"); id != "" {
			j, ok := m.Job(id)
			if !ok {
				httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
				return
			}
			resp.Job = id
			// Approximate stand-ins let a running fast job answer the
			// budget question instantly; for exact jobs this is just the
			// completed subset.
			points = j.PointsWithApprox()
			if workload != "" {
				points = sweep.Filter(points, func(p sweep.Point) bool { return p.Workload == workload })
			}
		} else {
			points = m.Store().Points(func(p sweep.Point) bool {
				return workload == "" || p.Workload == workload
			})
		}
		if err := oneWorkload(points); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		resp.PointsConsidered = len(points)
		best, env, ok := EnvelopeAt(points, budget)
		sortPointsStable(env)
		resp.Feasible = ok
		if ok {
			b := toPointJSON(best)
			resp.Best = &b
		}
		resp.Envelope = make([]pointJSON, len(env))
		for i, p := range env {
			resp.Envelope[i] = toPointJSON(p)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !m.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		if err := m.StoreErr(); err != nil {
			// Completed work is no longer reaching stable storage:
			// unready, so traffic routes to replicas that can still
			// honor the durability contract.
			m.updateStoreHealth()
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "store-poisoned", "error": err.Error(),
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// requestTimeout reads the client's job deadline from the X-Timeout
// header or ?timeout= query (the query wins when both are set); the
// manager clamps it by Config.MaxTimeout. Zero means no client deadline.
func requestTimeout(r *http.Request) (time.Duration, error) {
	s := r.Header.Get("X-Timeout")
	if q := r.URL.Query().Get("timeout"); q != "" {
		s = q
	}
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("timeout must be a positive duration like 30s, got %q", s)
	}
	return d, nil
}

// oneWorkload rejects an envelope query whose point set mixes workloads
// — a staircase over mixed workloads answers no meaningful question.
func oneWorkload(points []sweep.Point) error {
	var name string
	for _, p := range points {
		if name == "" {
			name = p.Workload
			continue
		}
		if p.Workload != name {
			return fmt.Errorf("points span multiple workloads; narrow with ?workload=<name>")
		}
	}
	return nil
}

// workloadNames expands the "all" workload shorthand.
func workloadNames() []string { return spec.Names() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n')) //nolint:errcheck // best-effort response body
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
