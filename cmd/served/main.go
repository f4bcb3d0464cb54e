// Command served runs the sweep/evaluation job service: an HTTP JSON API
// that accepts design-space jobs, fans their (workload, configuration)
// evaluations out across a shared worker pool, memoizes every completed
// point, and answers the paper's area-budget question directly from the
// memoized results.
//
// Endpoints (see internal/service):
//
//	POST   /v1/jobs              submit a job (X-Timeout/?timeout= caps
//	                             the job; 429 + Retry-After under load,
//	                             413 for oversized bodies)
//	GET    /v1/jobs[/{id}]       job statuses
//	GET    /v1/jobs/{id}/result  completed points (twolevel-sweep/1 JSON)
//	GET    /v1/jobs/{id}/events  live progress over Server-Sent Events
//	                             (snapshot, per-task events, terminal
//	                             state; -sse-heartbeat sets the keepalive)
//	GET    /v1/jobs/{id}/trace   span tree (Chrome trace_event JSON) of a
//	                             running job or one of the last
//	                             service.KeptTraces finished ones
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/envelope          ?area=<rbe>[&workload=][&job=] budget query
//	GET    /metrics, /progress, /debug/pprof/  observability
//	                             (/metrics serves JSON by default and the
//	                             Prometheus text format under content
//	                             negotiation or ?format=prometheus)
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 once the drain begins or
//	                             the durable store is poisoned)
//
// With -store-dir the result store is durable: completed points are
// journaled to crash-safe segment files and replayed at boot, so a
// kill -9 and restart serves previously computed results byte-for-byte
// without re-simulating them. -hot-cache N layers a bounded in-memory
// LRU tier over the durable store (store_hot_* metrics report its hit
// rate) — the repo's own two-level hierarchy, applied to its serving
// plane.
//
// -slo p99:evaluate:500ms,p50:job:2s adds slo_burn/slo_pass verdicts
// over the node's own latency histograms to every Prometheus scrape.
//
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503, new jobs are
// refused, running jobs get -drain-timeout to finish, the final metrics
// snapshot is written, and the HTTP server shuts down cleanly. If the
// drain deadline expires with jobs still running, served exits nonzero
// so supervisors can tell a clean stop from a cut-short one.
//
// Usage:
//
//	served -listen :8080 -store-dir /var/lib/twolevel
//	served -listen 127.0.0.1:0 -workers 8 -events served.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		listen     = flag.String("listen", ":8080", "HTTP listen address (host:0 picks a free port)")
		workers    = flag.Int("workers", 0, "evaluation worker-pool size (0 = GOMAXPROCS)")
		storeCap   = flag.Int("store-cap", 0, "maximum memoized points for the in-memory store (0 = unbounded)")
		storeDir   = flag.String("store-dir", "", "durable result-store directory (replayed at boot; empty = in-memory only)")
		hotCache   = flag.Int("hot-cache", 0, "hot in-memory LRU tier over the durable store, in points (requires -store-dir; 0 = off)")
		sseHB      = flag.Duration("sse-heartbeat", 0, "keepalive interval of GET /v1/jobs/{id}/events streams (0 = 15s)")
		drainTime  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM; expiry cancels jobs and exits nonzero")
		maxActive  = flag.Int("max-active-jobs", 0, "refuse submissions (429) over this many unfinished jobs (0 = unlimited)")
		maxQueue   = flag.Int("max-queue", 0, "refuse submissions (429) while this many evaluations are queued (0 = unlimited)")
		maxTimeout = flag.Duration("max-timeout", 0, "clamp client X-Timeout deadlines, and apply to jobs that set none (0 = no server deadline)")
		maxBody    = flag.Int64("max-body-bytes", 0, "refuse larger POST /v1/jobs bodies with 413 (0 = 1MB default)")
		metricsOut = flag.String("metrics", "", "write the final metrics snapshot as JSON to this file")
		eventsOut  = flag.String("events", "", "append the job/run event journal (JSONL) to this file")
		traceOut   = flag.String("trace", "", fmt.Sprintf("write the service span trace (Chrome trace_event JSON) to this file at shutdown; it holds the running jobs and the last %d finished ones", service.KeptTraces))
		sloSpec    = flag.String("slo", "", "latency objectives evaluated on Prometheus scrapes, e.g. p99:evaluate:500ms,p50:job:2s")
	)
	flag.Parse()

	slos, err := obs.ParseSLOs(*sloSpec)
	if err != nil {
		return fail(err)
	}

	reg := obs.NewRegistry()
	obs.EnableRuntimeMetrics(reg)
	var elog *obs.EventLog
	if *eventsOut != "" {
		var err error
		if elog, err = obs.OpenEventLogFile(*eventsOut); err != nil {
			return fail(err)
		}
	}

	// The store: durable segments under -store-dir, or the bounded
	// in-memory store.
	var store service.Store
	var disk *service.DiskStore
	if *storeDir != "" {
		var err error
		if disk, err = service.OpenDiskStore(*storeDir, service.DiskStoreOptions{}); err != nil {
			return fail(err)
		}
		st := disk.Stats()
		fmt.Fprintf(os.Stderr, "served: store %s replayed %d points (%d segments", *storeDir, st.Points, st.Segments)
		if st.CorruptDropped > 0 || st.TornRepaired > 0 {
			fmt.Fprintf(os.Stderr, "; dropped %d corrupt, repaired %d torn", st.CorruptDropped, st.TornRepaired)
		}
		fmt.Fprintln(os.Stderr, ")")
		store = disk
	} else {
		store = service.NewStore(*storeCap)
	}
	if *hotCache > 0 {
		if disk == nil {
			return fail(fmt.Errorf("-hot-cache needs a durable store to sit over; set -store-dir (the in-memory store is already its own hot tier)"))
		}
		store = service.NewHotStore(store, *hotCache, reg)
		fmt.Fprintf(os.Stderr, "served: hot tier enabled (%d points, LRU) over %s\n", *hotCache, *storeDir)
	}

	// The manager traces every job regardless (GET /v1/jobs/{id}/trace
	// serves per-job subtrees live) and keeps the trees of the last
	// service.KeptTraces finished jobs; -trace additionally persists
	// those at shutdown.
	tr := span.NewTracer()
	mgr := service.New(service.Config{
		Workers:         *workers,
		Store:           store,
		Metrics:         reg,
		Events:          elog,
		Trace:           tr,
		MaxActiveJobs:   *maxActive,
		MaxQueue:        *maxQueue,
		MaxTimeout:      *maxTimeout,
		MaxBodyBytes:    *maxBody,
		StreamHeartbeat: *sseHB,
	})

	// One mux serves the job API and the observability endpoints; the
	// obs mux holds "/" so /metrics, /debug/pprof, and the index work
	// exactly as they do under cmd/sweep -listen. The job API runs behind
	// the latency middleware, feeding the per-endpoint
	// http_request_seconds_* histograms the SLO layer summarizes.
	root := http.NewServeMux()
	api := obs.InstrumentHTTP(reg, service.NewHandler(mgr))
	root.Handle("/v1/", api)
	root.Handle("/healthz", api)
	root.Handle("/readyz", api)

	// With -slo, every Prometheus scrape also carries the verdicts,
	// evaluated over the node's own registry.
	root.Handle("/", obs.NewMuxOptions(reg, obs.MuxOptions{PromExtra: func(pw *obs.PromWriter) {
		if len(slos) > 0 {
			obs.WriteSLOVerdicts(pw, obs.EvalSLOs(slos, reg.Snapshot(), obs.SLOAliases))
		}
	}}))

	srv, err := obs.ServeHandler(*listen, root)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "served: listening on http://%s (POST /v1/jobs, GET /v1/envelope, /metrics)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	code := 0
	fmt.Fprintf(os.Stderr, "served: draining (budget %v; running jobs finish, new jobs refused)\n", *drainTime)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "served: drain cut short, running jobs cancelled: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "served: http shutdown: %v\n", err)
	}
	if disk != nil {
		if err := disk.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "served: closing store: %v\n", err)
			code = 1
		}
	}
	if err := elog.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "served: closing event journal: %v\n", err)
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "served: writing metrics snapshot: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "served: metrics snapshot saved to %s\n", *metricsOut)
		}
	}
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "served: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "served: span trace saved to %s\n", *traceOut)
		}
	}
	fmt.Fprintln(os.Stderr, "served: bye")
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "served:", err)
	return 1
}
