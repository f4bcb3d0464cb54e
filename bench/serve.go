package main

// serve-mix runs the job service in process, as cmd/served runs with a
// durable store (fsync per append) and a 256-point hot tier, behind the
// HTTP API on loopback. An open loop drives it at a fixed rate with
// cmd/loadgen's schedule and request bodies: cold jobs (a per-request
// off-chip time, so every evaluation simulates), hot re-queries of a
// memoized job, envelope budget queries, and fast-mode jobs. Every
// request is timed from the moment it was due, so a stall that delays
// later requests counts against them. A job regenerates its 20k-ref
// trace, which fits in the host's caches: the opposite working-set
// regime from the 32 MB traces of the sweep workloads.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/loadgen"
	"twolevel/internal/model"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

const (
	serveWorkload  = "gcc1"
	serveRefs      = 20000
	serveRPS       = 100
	tinyRPS        = 20
	tinyLoad       = 2 * time.Second
	hotCache       = 256
	requestTimeout = 30 * time.Second
	// directReps repeats the small direct-path sweeps of the traced run
	// so their millisecond timings are medians.
	directReps = 20
)

var serveMix = map[string]int{loadgen.ClassCold: 1, loadgen.ClassEnvelope: 3, loadgen.ClassFast: 1, loadgen.ClassHot: 5}

// jobBody is cmd/loadgen's POST /v1/jobs body for a class, with the
// number of points the finished job must hold.
func jobBody(class string, index int) (string, int) {
	switch class {
	case loadgen.ClassCold:
		return fmt.Sprintf(`{"workloads":[%q],"options":{"refs":%d,"l1_kb":[1,2],"l2_kb":[0,16],"offchip_ns":%g}}`,
			serveWorkload, serveRefs, 100+float64(index)*0.25), 4
	case loadgen.ClassFast:
		return fmt.Sprintf(`{"workloads":[%q],"mode":"fast","options":{"refs":%d,"l1_kb":[1,2,4],"l2_kb":[0,32]}}`,
			serveWorkload, serveRefs), 6
	default:
		return fmt.Sprintf(`{"workloads":[%q],"options":{"refs":%d,"l1_kb":[1,2,4],"l2_kb":[0,16]}}`,
			serveWorkload, serveRefs), 6
	}
}

// bodyOptions is the sweep the service derives from the hot (l2KB 16)
// or fast (l2KB 32) body.
func bodyOptions(l2KB int64) sweep.Options {
	return sweep.Options{Refs: serveRefs, L1Sizes: []int64{1 << 10, 2 << 10, 4 << 10}, L2Sizes: []int64{0, l2KB << 10}}
}

// serveRun is the set-up serve-mix workload: a primed, ready server
// and the request schedule.
type serveRun struct {
	o     options
	tr    *span.Tracer // nil when untraced
	probe *serveProbe  // nil when untraced
	s     *server
	plan  []loadgen.Request
}

func serveSetup(o options, traced bool) (workload, error) {
	rps, load := float64(serveRPS), time.Duration(o.seconds)*time.Second
	if o.tiny {
		rps, load = tinyRPS, tinyLoad
	}
	r := &serveRun{o: o}
	if traced {
		r.tr = span.NewTracer()
		r.probe = &serveProbe{tr: r.tr, http: map[string][]time.Duration{}}
	}
	var err error
	if r.s, err = startServer(o.out, r.probe, r.tr); err != nil {
		return nil, err
	}
	r.plan, err = loadgen.Plan(loadgen.Config{BaseURL: r.s.base, RPS: rps, Duration: load, Seed: int64(o.seed), Mix: serveMix})
	if err != nil {
		return nil, errors.Join(err, r.s.close())
	}
	return r, nil
}

func (r *serveRun) close() error { return r.s.close() }

func (r *serveRun) measure() (*result, error) {
	res := newResult()
	traced := r.tr != nil
	var root *span.Span
	if traced {
		root = r.tr.Start(nil, "bench", span.Attr{Key: "workload", Value: "serve-mix"}, span.Attr{Key: "seed", Value: fmt.Sprint(r.o.seed)})
		if err := serveLayers(res, r.tr, root, r.o.tiny); err != nil {
			return nil, err
		}
		r.probe.reset()
	}
	ls := r.tr.Start(root, "open loop")
	stop := make(chan struct{})
	peaks := windowPeaks(time.Second, stop)
	g0 := readGoStats()
	outs, inflight := r.s.load(r.plan)
	g1 := readGoStats()
	close(stop)
	ls.End()
	summarize(res, outs, inflight, traced)
	if traced {
		g1.sub(g0).report(res, 1)
		r.probe.report(res)
	} else {
		res.setSamples("peak_rss_mb", <-peaks, mean, "MB")
	}
	if err := r.s.checkHot(res); err != nil {
		return nil, err
	}
	if traced {
		root.End()
		return res, r.tr.WriteFile(traceFile(r.o, "serve-mix"))
	}
	return res, nil
}

// windowPeaks records the peak resident set of each interval-long
// window until stop is closed, then sends the peaks.
func windowPeaks(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var peaks []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		resetPeakRSS()
		for {
			select {
			case <-tick.C:
				peaks = append(peaks, peakRSSMB())
				resetPeakRSS()
			case <-stop:
				out <- append(peaks, peakRSSMB())
				return
			}
		}
	}()
	return out
}

// outcome is one request of the open loop.
type outcome struct {
	class   string
	late    time.Duration // due → sent
	latency time.Duration // due → answered (a job's terminal state)
	first   time.Duration // due → a job's first result
	server  time.Duration // POST answered → terminal state
	err     error
}

// summarize reports the open loop's failures, and either its latencies
// (untraced) or the server-side and generator-health numbers (traced).
// A request that failed is counted as failed and left out of the
// latencies.
func summarize(res *result, outs []outcome, inflight int64, traced bool) {
	lat := map[string][]float64{}
	var first, server, late []float64
	var failures []string
	for _, o := range outs {
		res.Attempted++
		late = append(late, ms(o.late))
		if o.err != nil {
			res.Failed++
			if len(failures) < 5 {
				failures = append(failures, fmt.Sprintf("%s: %v", o.class, o.err))
			}
			continue
		}
		lat[o.class] = append(lat[o.class], ms(o.latency))
		switch o.class {
		case loadgen.ClassFast:
			first = append(first, ms(o.first))
		case loadgen.ClassCold:
			server = append(server, ms(o.server))
		}
	}
	if res.Failed > 0 {
		res.problem("%d of %d requests failed, e.g. %s", res.Failed, res.Attempted, strings.Join(failures, "; "))
	}
	if traced {
		res.set("service.cold_server_ms_p50", percentile(server, 0.5), "ms", len(server))
		res.set("loadgen.late_ms_p50", percentile(late, 0.5), "ms", len(late))
		res.set("loadgen.late_ms_p90", percentile(late, 0.9), "ms", len(late))
		res.set("loadgen.inflight_max", float64(inflight), "count", len(outs))
		return
	}
	hot, cold := lat[loadgen.ClassHot], lat[loadgen.ClassCold]
	res.set("sweep_s", percentile(cold, 0.5)/1e3, "s", len(cold))
	res.set("p50_ms", percentile(hot, 0.5), "ms", len(hot))
	res.set("p90_ms", percentile(hot, 0.9), "ms", len(hot))
	res.set("envelope_p90_ms", percentile(lat[loadgen.ClassEnvelope], 0.9), "ms", len(lat[loadgen.ClassEnvelope]))
	res.set("fast_first_p90_ms", percentile(first, 0.9), "ms", len(first))
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
}

// serveLayers times the layers on the service's own inputs: the hot
// body's sweep on the direct path against sweep.RunContext, and the
// fast body's sweep on both tiers.
func serveLayers(res *result, tr *span.Tracer, root *span.Span, tiny bool) error {
	w, err := spec.ByName(serveWorkload)
	if err != nil {
		return err
	}
	reps := directReps
	if tiny {
		reps = 2
	}
	hot, fast := bodyOptions(16), bodyOptions(32)
	prim := newDirectPath(tr, nproc())
	var refWalls, directWalls []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		ref, err := sweep.RunContext(context.Background(), w, hot)
		refWalls = append(refWalls, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		t1 := time.Now()
		direct, err := prim.exact(root, w, hot)
		directWalls = append(directWalls, float64(time.Since(t1)))
		if err != nil {
			return err
		}
		if i == 0 && !reflect.DeepEqual(direct, ref) {
			res.problem("the traced direct path does not reproduce the hot body's sweep: %s", firstDiff(direct, ref))
		}
	}
	busy := prim.busyTotal()

	cross := newDirectPath(tr, nproc())
	fastPts, err := cross.fast(root, w, fast)
	if err != nil {
		return err
	}
	ref, err := model.RunContext(context.Background(), w, fast)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(fastPts, ref) {
		res.problem("the traced direct path does not reproduce the fast body's sweep: %s", firstDiff(fastPts, ref))
	}
	exactPts, err := cross.exact(root, w, fast)
	if err != nil {
		return err
	}
	rep, err := accuracy(exactPts, fastPts)
	if err != nil {
		return err
	}
	res.set("model.tpi_err_pct", 100*rep.MeanAbsTPIErr, "%", len(exactPts))
	res.set("model.winner_agree_pct", 100*rep.WinnerAgreement, "%", 1)

	// The probe repeats calls that succeeded above, so their errors are moot.
	over := overhead(reps, nproc(), func(d *directPath) { _, _ = d.exact(nil, w, hot) })
	res.set("bench.trace_overhead_frac", over, "ratio", reps)
	res.set("sweep.attributed_frac", median(directWalls)/median(refWalls), "ratio", reps)
	var wall float64
	for _, d := range directWalls {
		wall += d
	}
	res.set("sweep.worker_busy_frac", float64(busy)/wall/float64(nproc()), "ratio", reps)
	prim.merge(cross)
	prim.layerMetrics(res)
	return nil
}

// server is the service under test and a client capped at nproc
// connections.
type server struct {
	dir    string
	disk   *service.DiskStore
	mgr    *service.Manager
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	hotJob string
}

// startServer opens a durable store in a fresh directory under dir,
// starts the manager and the HTTP API on loopback, primes the hot and
// fast bodies and waits until /readyz answers 200. With a probe, the
// store tiers and handlers are timed.
func startServer(dir string, probe *serveProbe, tr *span.Tracer) (*server, error) {
	storeDir, err := os.MkdirTemp(dir, "serve-store-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: storeDir, served: make(chan error, 1)}
	if s.disk, err = service.OpenDiskStore(storeDir, service.DiskStoreOptions{}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	cfg := service.Config{Workers: nproc(), Trace: tr}
	if probe == nil {
		cfg.Store = service.NewHotStore(s.disk, hotCache, nil)
	} else {
		probe.inner = &timedStore{Store: s.disk, tr: tr, tier: "disk"}
		probe.outer = &timedStore{Store: service.NewHotStore(probe.inner, hotCache, nil), tr: tr, tier: "hot"}
		cfg.Store = probe.outer
	}
	s.mgr = service.New(cfg)
	var handler http.Handler = service.NewHandler(s.mgr)
	if probe != nil {
		handler = probe.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: handler, ReadHeaderTimeout: requestTimeout}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}}

	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for i, class := range []string{loadgen.ClassHot, loadgen.ClassFast} {
		body, want := jobBody(class, 0)
		id, _, _, err := s.job(ctx, body, want)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("priming %s: %w", class, err), s.close())
		}
		if i == 0 {
			s.hotJob = id
		}
	}
	for {
		code, err := s.get(ctx, "/readyz", nil)
		if err == nil && code == http.StatusOK {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return nil, errors.Join(fmt.Errorf("/readyz never answered 200: %d %v", code, err), s.close())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// close stops the manager and the HTTP server, closes the store and
// removes its directory.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var errs []error
	if s.mgr != nil {
		errs = append(errs, s.mgr.Shutdown(ctx))
	}
	if s.http != nil {
		errs = append(errs, s.http.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	if s.disk != nil {
		errs = append(errs, s.disk.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// load runs the open loop: each planned request is sent when due,
// whether or not earlier ones have been answered.
func (s *server) load(plan []loadgen.Request) ([]outcome, int64) {
	outs := make([]outcome, len(plan))
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, rq := range plan {
		due := start.Add(rq.At)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			outs[i] = s.send(rq, due)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	return outs, peak.Load()
}

func (s *server) send(rq loadgen.Request, due time.Time) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	o := outcome{class: rq.Class, late: time.Since(due)}
	if rq.Class == loadgen.ClassEnvelope {
		o.err = s.envelope(ctx)
	} else {
		body, want := jobBody(rq.Class, rq.Index)
		var posted, first time.Time
		_, posted, first, o.err = s.job(ctx, body, want)
		o.first, o.server = first.Sub(due), time.Since(posted)
	}
	o.latency = time.Since(due)
	return o
}

// jobStatus is the part of a job's status the benchmark reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// job submits body and follows the job's event stream to its terminal
// state, which must be done with want points. It reports the job id,
// when the POST was answered and when the first result arrived.
func (s *server) job(ctx context.Context, body string, want int) (id string, posted, first time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return "", posted, first, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", posted, first, err
	}
	var st jobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	posted = time.Now()
	if resp.StatusCode != http.StatusAccepted || decErr != nil || st.ID == "" {
		return "", posted, first, fmt.Errorf("POST /v1/jobs: status %d, %v", resp.StatusCode, decErr)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return st.ID, posted, first, err
	}
	resp, err = s.client.Do(req)
	if err != nil {
		return st.ID, posted, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st.ID, posted, first, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	var final *jobStatus
	var finalErr error
	err = readSSE(resp.Body, func(event string, data []byte) bool {
		now := time.Now()
		switch event {
		case "snapshot":
			var snap jobStatus
			if json.Unmarshal(data, &snap) == nil && snap.Done > 0 && first.IsZero() {
				first = now
			}
		case "task":
			if first.IsZero() {
				first = now
			}
		case "state":
			final = &jobStatus{}
			finalErr = json.Unmarshal(data, final)
			if first.IsZero() {
				first = now
			}
			return false
		}
		return true
	})
	switch {
	case err != nil || finalErr != nil:
		return st.ID, posted, first, errors.Join(err, finalErr)
	case final == nil:
		return st.ID, posted, first, errors.New("event stream ended before the terminal state")
	case final.State != string(service.StateDone) || final.Done != want || final.Total != want:
		return st.ID, posted, first, fmt.Errorf("job %s ended %s with %d/%d points, want %d", st.ID, final.State, final.Done, final.Total, want)
	}
	return st.ID, posted, first, nil
}

// envelope asks the paper's budget question over the memoized points;
// the answer must name a best configuration.
func (s *server) envelope(ctx context.Context) error {
	var env struct {
		Feasible bool `json:"feasible"`
		Best     *struct {
			Label string `json:"label"`
		} `json:"best"`
	}
	code, err := s.get(ctx, "/v1/envelope?area=1e9&workload="+serveWorkload, &env)
	switch {
	case err != nil:
		return err
	case code != http.StatusOK || !env.Feasible || env.Best == nil:
		return fmt.Errorf("GET /v1/envelope: status %d, feasible %t", code, env.Feasible)
	}
	return nil
}

// get fetches path and decodes a JSON body into v when v is non-nil.
func (s *server) get(ctx context.Context, path string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode, err
}

// checkHot requires the served hot result to be byte-identical to
// sweep.RunContext of the same request.
func (s *server) checkHot(res *result) error {
	w, err := spec.ByName(serveWorkload)
	if err != nil {
		return err
	}
	points, err := sweep.RunContext(context.Background(), w, bodyOptions(16))
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := sweep.SaveJSON(&want, points); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/jobs/"+s.hotJob+"/result", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		res.problem("the served hot result (status %d) differs from sweep.RunContext of the same request", resp.StatusCode)
	}
	return nil
}

// readSSE parses a text/event-stream, calling fn per event until fn
// returns false or the stream ends.
func readSSE(r io.Reader, fn func(event string, data []byte) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if event != "" || data != nil {
				if !fn(event, data) {
					return nil
				}
			}
			event, data = "", nil
		case line[0] == ':': // keepalive comment
		default:
			field, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(field) {
			case "event":
				event = string(value)
			case "data":
				if data != nil {
					data = append(data, '\n')
				}
				data = append(data, value...)
			}
		}
	}
	return sc.Err()
}

// serveProbe times the service's layers from outside: both store tiers
// through timedStore wrappers, and the job-submission and envelope
// handlers through HTTP middleware.
type serveProbe struct {
	tr           *span.Tracer
	outer, inner *timedStore

	mu   sync.Mutex
	http map[string][]time.Duration
}

func (p *serveProbe) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var route string
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			route = "service.http_jobs_post"
		case r.Method == http.MethodGet && r.URL.Path == "/v1/envelope":
			route = "service.http_envelope"
		default:
			next.ServeHTTP(w, r)
			return
		}
		sp := p.tr.Start(nil, route)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.End()
		p.mu.Lock()
		p.http[route] = append(p.http[route], d)
		p.mu.Unlock()
	})
}

// reset forgets what priming and the direct references recorded.
func (p *serveProbe) reset() {
	p.mu.Lock()
	clear(p.http)
	p.mu.Unlock()
	p.outer.reset()
	p.inner.reset()
}

func (p *serveProbe) report(res *result) {
	outerGets, _ := p.outer.samples()
	innerGets, puts := p.inner.samples()
	us := make([]float64, len(outerGets))
	for i, d := range outerGets {
		us[i] = float64(d) / 1e3
	}
	res.set("service.store_put_ms_p50", percentile(msAll(puts), 0.5), "ms", len(puts))
	res.set("service.store_put_ms_p90", percentile(msAll(puts), 0.9), "ms", len(puts))
	res.set("service.store_puts", float64(len(puts)), "count", len(puts))
	res.set("service.store_get_us_p50", percentile(us, 0.5), "us", len(us))
	res.set("service.hot_hit_frac", 1-ratio(float64(len(innerGets)), float64(len(outerGets))), "ratio", len(outerGets))
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, route := range []string{"service.http_jobs_post", "service.http_envelope"} {
		res.set(route+"_ms_p50", percentile(msAll(p.http[route]), 0.5), "ms", len(p.http[route]))
	}
}

// timedStore times the Get and Put calls of the store it wraps. It
// forwards Err, which the manager and HotStore use to surface a
// poisoned durable store.
type timedStore struct {
	service.Store
	tr   *span.Tracer
	tier string

	mu         sync.Mutex
	gets, puts []time.Duration
}

func (t *timedStore) Get(key string) (sweep.Point, bool) {
	sp := t.tr.Start(nil, "service.Store.Get", span.Attr{Key: "tier", Value: t.tier})
	t0 := time.Now()
	p, ok := t.Store.Get(key)
	d := time.Since(t0)
	sp.End()
	t.mu.Lock()
	t.gets = append(t.gets, d)
	t.mu.Unlock()
	return p, ok
}

func (t *timedStore) Put(key string, p sweep.Point) {
	sp := t.tr.Start(nil, "service.Store.Put", span.Attr{Key: "tier", Value: t.tier})
	t0 := time.Now()
	t.Store.Put(key, p)
	d := time.Since(t0)
	sp.End()
	t.mu.Lock()
	t.puts = append(t.puts, d)
	t.mu.Unlock()
}

func (t *timedStore) Err() error {
	if e, ok := t.Store.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (t *timedStore) reset() {
	t.mu.Lock()
	t.gets, t.puts = nil, nil
	t.mu.Unlock()
}

func (t *timedStore) samples() (gets, puts []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.gets...), append([]time.Duration(nil), t.puts...)
}
