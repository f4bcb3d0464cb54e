// Command loadgen replays a deterministic job mix against a live served
// instance and reports client-perceived latency with SLO verdicts — the
// measurement half of the serving observatory (internal/loadgen).
//
// Arrivals are open-loop at -rps for -duration; the class of each
// arrival is drawn from the weighted -mix by a generator seeded with
// -seed, so two runs offer byte-identical request sequences. Each job is
// tracked to its terminal state over the server's SSE progress stream
// (GET /v1/jobs/{id}/events), which also yields time-to-first-result;
// -poll falls back to status polling. The run ends with a per-class
// latency table on stderr and a twolevel-loadgen/1 JSON report on
// stdout or -o, including the server's own /metrics snapshot for
// correlating client latency with server pressure.
//
// -slo evaluates latency objectives over the client-side histograms
// using the same syntax and estimator as the server (obs.ParseSLOs);
// class names alias their histograms, "<class>_first" the
// time-to-first-result ones. Any failed objective exits 1.
//
// Usage:
//
//	loadgen -base http://127.0.0.1:8080
//	loadgen -base http://127.0.0.1:8080 -rps 20 -duration 30s \
//	    -mix cold=1,hot=6,envelope=3,fast=1 \
//	    -slo p99:hot:500ms,p95:envelope:100ms,p90:fast_first:250ms \
//	    -o loadgen.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twolevel/internal/loadgen"
	"twolevel/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		base     = flag.String("base", "", "base URL of the served instance under test (required)")
		rps      = flag.Float64("rps", 10, "open-loop arrival rate, requests per second")
		duration = flag.Duration("duration", 10*time.Second, "arrival window (the run then drains in-flight requests)")
		seed     = flag.Int64("seed", 1, "seed for the deterministic class/parameter sequence")
		mixSpec  = flag.String("mix", "", "request-class weights, e.g. cold=1,hot=5,envelope=3,fast=1 (default that mix)")
		sloSpec  = flag.String("slo", "", "latency objectives over client histograms, e.g. p99:hot:500ms,p90:fast_first:250ms")
		workload = flag.String("workload", "gcc1", "spec workload every job names")
		refs     = flag.Uint64("refs", 20000, "per-job synthetic trace length")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request lifecycle cap, submission to terminal")
		poll     = flag.Bool("poll", false, "observe completion by polling instead of the SSE stream (no first-result timings)")
		noScrape = flag.Bool("no-scrape", false, "omit the server /metrics snapshot from the report")
		out      = flag.String("o", "", "write the twolevel-loadgen/1 JSON report here (default stdout)")
		quiet    = flag.Bool("q", false, "suppress the stderr progress log and summary table")
	)
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -base is required")
		flag.Usage()
		return 2
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	slos, err := obs.ParseSLOs(*sloSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}

	cfg := loadgen.Config{
		BaseURL:        *base,
		RPS:            *rps,
		Duration:       *duration,
		Seed:           *seed,
		Mix:            mix,
		Workload:       *workload,
		Refs:           *refs,
		SLOs:           slos,
		PollOnly:       *poll,
		RequestTimeout: *timeout,
		ScrapeServer:   !*noScrape,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil && rep == nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	if !*quiet {
		rep.WriteSummary(os.Stderr)
	}

	enc, jerr := json.MarshalIndent(rep, "", "  ")
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: encode report: %v\n", jerr)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if werr := os.WriteFile(*out, enc, 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: write %s: %v\n", *out, werr)
		return 1
	}

	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "loadgen: run interrupted: %v\n", err)
		return 1
	case !rep.Pass:
		return 1
	}
	return 0
}

// parseMix parses "class=weight,..." into the Config.Mix map; empty
// input means the default mix.
func parseMix(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	mix := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q, want class=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q for class %q", val, name)
		}
		mix[strings.TrimSpace(name)] = w
	}
	return mix, nil
}
