// Command sweep runs the full design-space exploration for one or more
// workloads and prints every evaluated configuration (optionally as CSV),
// marking the best-performance envelope.
//
// Long-running sweeps can be bounded and made restartable: -timeout caps
// the whole run, -cfg-timeout caps each configuration, and -store-dir
// records completed configurations in the durable result store served
// -store-dir uses and skips the ones it already holds, so a rerun on the
// same directory resumes an interrupted sweep. SIGINT (Ctrl-C) drains
// gracefully: the store is closed, the partial envelope is printed, and
// the process exits nonzero, as it does when the store fails to persist
// a point.
//
// A running sweep can be observed live: -listen serves /metrics (counter,
// gauge, and histogram snapshots), /progress (completion counts and an
// ETA), and /debug/pprof on the given address; -metrics writes the final
// snapshot to a JSON file; -events appends a structured JSONL journal of
// run events (config_start, config_done, retries, store hits, a final
// run manifest); -trace writes the run's span tree
// (run → sweep → config → attempt → simulate) as Chrome trace_event
// JSON, loadable in Perfetto or chrome://tracing.
//
// The analytical fast tier (-fast) predicts every point from one
// reuse-distance profile pass instead of simulating each configuration
// — approximate, about an order of magnitude faster, and marked
// "approx": true in saved documents. -accuracy runs both tiers and
// reports prediction error, best-under-budget agreement, and speedup
// per workload (with -o, as a twolevel-model-accuracy/1 JSON document).
// Neither mode takes -store-dir: fast points never enter stores, and
// store hits would fake the exact-tier time -accuracy reports.
//
// Usage:
//
//	sweep -workload gcc1
//	sweep -workload all -fast
//	sweep -workload all -accuracy -o accuracy.json
//	sweep -workload all -offchip 200 -l2assoc 4 -policy exclusive -csv
//	sweep -workload all -store-dir results -o sweeps.json
//	sweep -workload all -listen localhost:6060 -metrics metrics.json -events run.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/model"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

func main() {
	var (
		workload   = flag.String("workload", "gcc1", "workload name, comma list, or 'all'")
		offchip    = flag.Float64("offchip", 50, "off-chip miss service time, ns")
		l2assoc    = flag.Int("l2assoc", 4, "L2 associativity")
		policy     = flag.String("policy", "conventional", "conventional, exclusive, or inclusive")
		dual       = flag.Bool("dual", false, "dual-ported L1 cells")
		refs       = flag.Uint64("refs", spec.DefaultRefs, "trace length per configuration")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut    = flag.String("o", "", "also save the sweep(s) as one JSON document to this file")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
		cfgTimeout = flag.Duration("cfg-timeout", 0, "evaluation budget per configuration (0 = none)")
		retries    = flag.Int("retries", 0, "extra attempts per configuration after a transient failure")
		storeDir   = flag.String("store-dir", "", "durable result-store directory: serve stored configurations, record evaluated ones")
		progress   = flag.Bool("progress", false, "report sweep progress on stderr (throttled to one line per second)")
		listen     = flag.String("listen", "", "serve /metrics, /progress, and /debug/pprof on this address while running")
		metricsOut = flag.String("metrics", "", "write the final metrics snapshot as JSON to this file")
		eventsOut  = flag.String("events", "", "append the structured run-event journal (JSONL) to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON span tree to this file (open in Perfetto)")
		fast       = flag.Bool("fast", false, "predict points from reuse-distance profiles instead of simulating (approximate, ~10x faster)")
		accuracy   = flag.Bool("accuracy", false, "run both tiers and report fast-vs-exact accuracy (with -o, saves the twolevel-model-accuracy/1 document)")
	)
	flag.Parse()
	if *storeDir != "" && (*fast || *accuracy) {
		// Fast points never enter stores, and -accuracy times the exact
		// tier, whose store hits would fake the speedup it reports.
		fmt.Fprintln(os.Stderr, "sweep: -store-dir cannot be combined with -fast or -accuracy")
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -retries %d is negative\n", *retries)
		os.Exit(2)
	}

	var pol core.Policy
	switch *policy {
	case "conventional":
		pol = core.Conventional
	case "exclusive":
		pol = core.Exclusive
	case "inclusive":
		pol = core.Inclusive
	default:
		fatal(fmt.Errorf("unknown -policy %q", *policy))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var reg *obs.Registry
	if *listen != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var elog *obs.EventLog
	if *eventsOut != "" {
		var err error
		if elog, err = obs.OpenEventLogFile(*eventsOut); err != nil {
			fatal(err)
		}
	}
	var tr *span.Tracer
	var root *span.Span
	if *traceOut != "" {
		tr = span.NewTracer()
		root = tr.Start(nil, "run",
			span.Attr{Key: "workload", Value: *workload},
			span.Attr{Key: "policy", Value: *policy})
	}
	// flushObs persists the observability outputs; it runs on both the
	// normal and the drain exit paths.
	flushObs := func() {
		if err := elog.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: closing event journal: %v\n", err)
		}
		if *traceOut != "" {
			root.End()
			if err := tr.WriteFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: writing trace: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "sweep: span trace saved to %s\n", *traceOut)
			}
		}
		if *metricsOut != "" {
			if err := obs.WriteSnapshotFile(*metricsOut, reg); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: writing metrics snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "sweep: metrics snapshot saved to %s\n", *metricsOut)
			}
		}
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, reg, sweep.ProgressSummary(reg))
		if err != nil {
			fatal(err)
		}
		// Drain rather than drop: an in-flight /metrics scrape at exit
		// gets a grace period to finish.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort exit drain
		}()
		fmt.Fprintf(os.Stderr, "sweep: observability on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}

	opt := sweep.Options{
		OffChipNS: *offchip, L2Assoc: *l2assoc, Policy: pol,
		DualPorted: *dual, Refs: *refs,
		Timeout: *cfgTimeout, Retries: *retries,
		Metrics: reg, Events: elog,
		Trace: tr, TraceParent: root,
	}
	var store *service.DiskStore
	if *storeDir != "" {
		var err error
		if store, err = service.OpenDiskStore(*storeDir, service.DiskStoreOptions{}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: result store %s holds %d points\n", *storeDir, store.Len())
		opt.Store = store
	}

	names := strings.Split(*workload, ",")
	if *workload == "all" {
		names = spec.Names()
	}
	if *accuracy {
		runAccuracy(ctx, names, opt, reg, *jsonOut, flushObs)
		return
	}
	var saved []sweep.Point
	headerDone := false
	degraded := false
	for _, name := range names {
		w, err := spec.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		if *progress {
			opt.Progress = newProgressPrinter(os.Stderr, w.Name, time.Second, time.Now)
		}
		start := time.Now()
		var points []sweep.Point
		if *fast {
			points, err = model.RunContext(ctx, w, opt)
		} else {
			points, err = sweep.RunContext(ctx, w, opt)
		}
		// A per-configuration timeout also wraps DeadlineExceeded, so
		// run-level interruption (SIGINT, -timeout) is detected on the
		// run context itself, not on the error chain.
		if err != nil && ctx.Err() != nil {
			drain(store, flushObs, w.Name, points, err)
		}
		if err != nil {
			// One or more configurations failed; the sweep degrades to
			// the completed points instead of crashing.
			degraded = true
			fmt.Fprintf(os.Stderr, "sweep: %s degraded:\n%v\n", w.Name, err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "sweep: %s: %d points in %v\n", w.Name, len(points), time.Since(start).Round(time.Millisecond))
		}

		title := fmt.Sprintf("%s (offchip %.0fns, L2 %d-way, %s", w.Name, *offchip, *l2assoc, pol)
		if *dual {
			title += ", dual-ported L1"
		}
		if *fast {
			title += ", analytical model"
		}
		title += ")"

		r := sweep.Report{CSV: *csv, NoHeader: *csv && headerDone, Workload: w.Name, Title: title}
		if err := r.Write(os.Stdout, points); err != nil {
			fatal(err)
		}
		headerDone = true
		if !*csv {
			fmt.Printf("summary: %s\n\n", sweep.Summarize(points))
		}
		if *jsonOut != "" {
			saved = append(saved, points...)
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := sweep.SaveJSON(f, saved); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved %d points (%d workloads) to %s\n", len(saved), len(names), *jsonOut)
	}
	flushObs()
	if !closeStore(store) || degraded {
		os.Exit(1)
	}
}

// closeStore closes the result store (nil-safe). A failure means some
// completed points may not survive a restart; it is printed and reported
// as false so the run exits nonzero.
func closeStore(store *service.DiskStore) bool {
	if store == nil {
		return true
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: result store: %v\n", err)
		return false
	}
	return true
}

// runAccuracy is the -accuracy mode: both tiers sweep every workload,
// the comparison is printed as a table, and -o saves the
// twolevel-model-accuracy/1 document. Wall times are measured around
// each tier's whole sweep, so the reported speedup includes the fast
// tier's one-time profile pass.
func runAccuracy(ctx context.Context, names []string, opt sweep.Options, reg *obs.Registry, jsonOut string, flushObs func()) {
	var errHist *obs.Histogram
	if reg != nil {
		errHist = reg.Histogram(model.MetricAbsTPIError, model.AbsTPIErrorBounds())
	}
	var was []model.WorkloadAccuracy
	for _, name := range names {
		w, err := spec.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		exactStart := time.Now()
		exact, err := sweep.RunContext(ctx, w, opt)
		if err != nil {
			fatal(err)
		}
		exactWall := time.Since(exactStart)
		fastStart := time.Now()
		fastPts, err := model.RunContext(ctx, w, opt)
		if err != nil {
			fatal(err)
		}
		fastWall := time.Since(fastStart)
		wa, err := model.Compare(w.Name, exact, fastPts, errHist)
		if err != nil {
			fatal(err)
		}
		wa.Wall(exactWall, fastWall)
		was = append(was, wa)
	}
	rep := model.NewReport(was)
	if err := rep.WriteTable(os.Stdout); err != nil {
		fatal(err)
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved accuracy report (%d workloads) to %s\n", len(was), jsonOut)
	}
	flushObs()
}

// drain is the graceful-shutdown path: close the result store, flush the
// observability outputs, print the partial envelope, and exit nonzero.
func drain(store *service.DiskStore, flushObs func(), workload string, points []sweep.Point, cause error) {
	fmt.Fprintln(os.Stderr, prefixed(cause))
	if store != nil && closeStore(store) {
		fmt.Fprintf(os.Stderr, "sweep: result store closed; rerun with -store-dir %s to continue\n", store.Dir())
	}
	flushObs()
	r := sweep.Report{Workload: workload, Title: fmt.Sprintf("%s partial envelope (%d configurations completed)", workload, len(points))}
	if err := r.Write(os.Stdout, sweep.Envelope(points)); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	}
	os.Exit(1)
}

// newProgressPrinter reports sweep progress on w, throttled to at most
// one line per interval so a large sweep cannot flood the terminal.
// Failures and the final configuration always print; everything goes to
// w (stderr in main), keeping piped stdout output clean. The clock is a
// parameter so tests can drive the throttle deterministically.
func newProgressPrinter(w io.Writer, workload string, interval time.Duration, now func() time.Time) func(sweep.ProgressEvent) {
	var last time.Time
	return func(ev sweep.ProgressEvent) {
		final := ev.Done >= ev.Total
		if ev.Err == nil && !final {
			t := now()
			if !last.IsZero() && t.Sub(last) < interval {
				return
			}
			last = t
		}
		switch {
		case ev.Skipped:
			fmt.Fprintf(w, "sweep: %s %3d/%d %-8s (resumed)\n", workload, ev.Done, ev.Total, ev.Label)
		case ev.Err != nil:
			fmt.Fprintf(w, "sweep: %s %3d/%d %-8s FAILED: %v\n", workload, ev.Done, ev.Total, ev.Label, ev.Err)
		default:
			fmt.Fprintf(w, "sweep: %s %3d/%d %-8s\n", workload, ev.Done, ev.Total, ev.Label)
		}
	}
}

// prefixed renders err with a single "sweep:" prefix (library errors
// already carry one).
func prefixed(err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, "sweep:") {
		return msg
	}
	return "sweep: " + err.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, prefixed(err))
	os.Exit(1)
}
