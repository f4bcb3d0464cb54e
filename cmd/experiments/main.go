// Command experiments regenerates EXPERIMENTS.md: for every table and
// figure in the paper's evaluation (plus this repository's extension
// experiments) it states the paper's claim, runs the experiment, and
// records the measured outcome.
//
// Usage:
//
//	go run ./cmd/experiments > EXPERIMENTS.md
//	go run ./cmd/experiments -refs 500000 > EXPERIMENTS.md   # faster
//
// The full run simulates hundreds of configurations; -store-dir records
// each one in the durable result store (the one served -store-dir uses)
// as it completes and serves the ones it already holds, so rerunning an
// interrupted run (SIGINT, -timeout) on the same directory picks up
// where it left off. A store that failed to persist a point makes the
// run exit nonzero.
//
//	go run ./cmd/experiments -store-dir exp.store > EXPERIMENTS.md
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"twolevel/internal/figures"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// claims maps each experiment to the paper's statement about it (or, for
// extension figures, to the expectation this repository sets in
// DESIGN.md).
var claims = map[string]string{
	"table1": "Table 1 lists the instruction and data reference counts of the seven " +
		"SPEC89 workloads (gcc1 22.7M+7.2M through tomcatv 1986.3M+963.6M). The " +
		"synthetic stand-ins must reproduce the instruction/data mix; absolute " +
		"counts are scaled down (rates are what the figures use).",
	"fig1": "§2.1/§2.3: first-level access and cycle time grow with cache size — " +
		"about a 1.8x machine-cycle spread from 1KB to 256KB at 0.5µm; cycle time " +
		"is always at least the access time.",
	"fig2": "§2.3/§2.5: with 4KB L1 caches an on-chip L2 is reachable in about 2 CPU " +
		"cycles after rounding — far closer than an off-chip access (the worked " +
		"example's L1 miss penalty is (2x2)+1 = 5 cycles).",
	"fig3": "§3: for gcc1, espresso, doduc and fpppp (50ns off-chip, single level), " +
		"TPI has an interior minimum between 8KB and 128KB — beyond it the slower " +
		"cycle time outweighs the lower miss rate.",
	"fig4": "§3: same for li, eqntott and tomcatv. espresso and eqntott favor small " +
		"caches (low miss rates); tomcatv favors small caches (its miss rate barely " +
		"falls with size).",
	"fig5": "§4: for gcc1 at 50ns the single-level staircase lies largely ON the " +
		"two-level envelope; two-level configurations become (marginally) preferable " +
		"only at large areas — at 3,000,000 rbe the best configuration is 32KB L1s " +
		"with a 256KB L2. Small-L2 configurations like 1:2 are dominated.",
	"fig6": "§4: doduc and espresso, same setup — single-level dominates below ~300K rbe, two-level appears marginally above.",
	"fig7": "§4: fpppp and li, same setup.",
	"fig8": "§4: tomcatv and eqntott, same setup.",
	"fig9": "§5: with a direct-mapped L2, gcc1's envelope is close to but slightly " +
		"worse than the 4-way L2 envelope — associativity's miss-rate gain more than " +
		"covers its (rounded-away) access-time cost, and its area cost is tiny.",
	"fig10": "§6: gcc1 with dual-ported L1 cells (2x area, 2x issue rate). The base cell wins for small caches, the dual-ported cell above a 50K-400K rbe crossover; two-level hybrids (dual-ported L1 + dense L2) take more of the envelope than in the base system.",
	"fig11": "§6: espresso — dual-ported cells are preferred at all but the smallest sizes (low miss rate makes issue bandwidth the bottleneck).",
	"fig12": "§6: doduc, same setup.",
	"fig13": "§6: fpppp, same setup.",
	"fig14": "§6: li, same setup.",
	"fig15": "§6: eqntott — the dual-ported cell is preferred essentially everywhere.",
	"fig16": "§6: tomcatv, same setup.",
	"fig17": "§7: gcc1 at 200ns off-chip (no board cache): small-cache TPI grows about 3x versus 50ns, and far fewer single-level configurations survive on the envelope (none larger than 4:0 in the paper).",
	"fig18": "§7: doduc and espresso at 200ns — even the low-miss-rate espresso doubles its TPI; two-level separation grows for every workload.",
	"fig19": "§7: fpppp and li at 200ns.",
	"fig20": "§7: tomcatv and eqntott at 200ns.",
	"fig21": "§8/Figure 21: with direct-mapped caches, a conflict in the SECOND level " +
		"yields exclusion — the two lines swap between levels and both stay on-chip " +
		"(a conventional hierarchy can hold only one and thrashes off-chip); a " +
		"conflict only in the FIRST level gains nothing from exclusion (both " +
		"policies already keep both lines on-chip).",
	"fig22": "§8: for gcc1, exclusive caching with a direct-mapped L2 performs about " +
		"as well as a conventional 4-way L2 — exclusion supplies a limited form of " +
		"associativity plus extra capacity.",
	"fig23": "§8: combining set-associativity AND exclusion beats either alone — the exclusive 4-way envelope is lower than both Figure 5's and Figure 22's.",
	"fig24": "§8: doduc and espresso, exclusive 4-way L2 — envelopes improve versus Figure 6.",
	"fig25": "§8: fpppp and li, exclusive 4-way L2 — envelopes improve versus Figure 7.",
	"fig26": "§8: eqntott and tomcatv, exclusive 4-way L2 — envelopes improve versus Figure 8.",
	"extrepl": "Extension (DESIGN.md ablation): the paper's pseudo-random L2 " +
		"replacement should cost little versus LRU at 4-way.",
	"extassoc": "Extension (DESIGN.md ablation): L2 miss-rate gains should taper beyond 4-way while the raw cycle time keeps growing.",
	"extline":  "Extension (DESIGN.md ablation): longer lines should cut miss rates on these spatially-local workloads (miss-rate view only).",
	"extpolicy": "Extension: at identical geometry, TPI should order exclusive < " +
		"conventional <= inclusive, and the write-back extension should show the " +
		"exclusive hierarchy also cutting off-chip write traffic.",
	"extmulti": "Extension (§10 future work): under a fixed-datapath multicycle-L1 " +
		"model, large L1s should stop hurting every instruction (the paper's first " +
		"conjecture), and non-blocking-load overlap should cheapen misses (the second).",
	"extmr": "Calibration record: the synthetic workloads' single-level miss rates " +
		"across the full size range, with the paper's §3 anchors (espresso 0.0100, " +
		"eqntott 0.0149, tomcatv 0.109 at 32KB) alongside.",
	"exttlb": "Extension (§1 fourth advantage): an L1 indexed past the page size " +
		"serializes a TLB lookup in front of every reference; page-sized L1s over a " +
		"physically-indexed L2 never pay it. The paper argues this qualitatively; " +
		"here it is charged explicitly (1 cycle per reference when L1 > 4KB).",
	"extseeds": "Robustness check: re-deriving the headline comparison under different " +
		"generator seeds must not change the verdicts (results are properties of the " +
		"calibrated distributions, not of one random stream).",
	"extbank": "Extension (§6's cited alternative): a banked single-ported L1 buys " +
		"issue bandwidth at ~6% area per bank instead of the dual-ported cell's 2x, " +
		"losing slots to bank conflicts (Sohi & Franklin's tradeoff).",
	"extboard": "Extension (§2.1's scenario pair, made explicit): simulating the " +
		"board-level cache (50ns hits, 200ns memory) instead of assuming a flat " +
		"service time; growing board caches should interpolate monotonically " +
		"between the paper's two endpoints.",
	"extwrite": "Ablation (§2.2's modeling choice): write-back/write-allocate (the " +
		"paper's model) versus write-through/no-write-allocate — the choice trades " +
		"per-store off-chip write bandwidth against line-fetch locality.",
	"extstream": "Extension (reference [4], Jouppi 1990): victim caches and stream " +
		"buffers — the small-structure alternatives to a second level. Both should " +
		"cut off-chip traffic at 4KB L1s; the exclusive L2 should subsume both at " +
		"(much) greater area.",
}

func main() {
	refs := flag.Uint64("refs", spec.DefaultRefs, "trace length per configuration")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	storeDir := flag.String("store-dir", "", "durable result-store directory: serve stored configurations, record evaluated ones")
	listen := flag.String("listen", "", "serve /metrics, /progress, and /debug/pprof on this address while running")
	metricsOut := flag.String("metrics", "", "write the final metrics snapshot as JSON to this file")
	eventsOut := flag.String("events", "", "append the structured run-event journal (JSONL) to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON span tree to this file (open in Perfetto)")
	flag.Parse()

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
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer elog.Close()
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, reg, sweep.ProgressSummary(reg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		// Drain rather than drop: an in-flight /metrics scrape at exit
		// gets a grace period to finish.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort exit drain
		}()
		fmt.Fprintf(os.Stderr, "experiments: observability on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}

	var tr *span.Tracer
	var root *span.Span
	if *traceOut != "" {
		tr = span.NewTracer()
		root = tr.Start(nil, "run", span.Attr{Key: "command", Value: "experiments"})
	}

	hcfg := figures.Config{Refs: *refs, Context: ctx, Metrics: reg, Events: elog, Trace: tr, TraceParent: root}
	var store *service.DiskStore
	if *storeDir != "" {
		var err error
		if store, err = service.OpenDiskStore(*storeDir, service.DiskStoreOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: result store %s holds %d points\n", *storeDir, store.Len())
		hcfg.Store = store
	}
	// closeStore closes the store (nil-safe), reporting false on a
	// persistence failure: some completed points may not survive.
	closeStore := func() bool {
		if store == nil {
			return true
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: result store:", err)
			return false
		}
		return true
	}

	// flushMetrics persists the final snapshot and span trace; it runs on
	// both the normal and the bail-out exit paths.
	flushMetrics := func() {
		if *traceOut != "" {
			root.End()
			if err := tr.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing trace:", err)
			} else {
				fmt.Fprintf(os.Stderr, "experiments: span trace saved to %s\n", *traceOut)
			}
		}
		if *metricsOut == "" {
			return
		}
		if err := obs.WriteSnapshotFile(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing metrics snapshot:", err)
		} else {
			fmt.Fprintf(os.Stderr, "experiments: metrics snapshot saved to %s\n", *metricsOut)
		}
	}

	h := figures.NewHarness(hcfg)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	fmt.Fprintln(out, "# EXPERIMENTS — paper versus measured")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Generated by `go run ./cmd/experiments` against the calibrated synthetic")
	fmt.Fprintf(out, "workloads (%d references per configuration; the paper's traces run\n", *refs)
	fmt.Fprintln(out, "30M-2950M references — rates converge far earlier). Absolute nanoseconds")
	fmt.Fprintln(out, "and rbe are model-calibrated, not measured silicon; the claims tracked here")
	fmt.Fprintln(out, "are the paper's *shape* claims: who wins, by roughly what factor, and where")
	fmt.Fprintln(out, "crossovers fall. Regenerate any figure's full data series with")
	fmt.Fprintln(out, "`go run ./cmd/figures -fig <id>`.")
	fmt.Fprintln(out)

	for _, id := range figures.IDs() {
		f, err := h.ByID(id)
		if err != nil {
			// Close the store before bailing so the completed
			// configurations survive; a rerun on it skips them.
			out.Flush()
			fmt.Fprintln(os.Stderr, "experiments:", err)
			if store != nil && closeStore() {
				fmt.Fprintf(os.Stderr, "experiments: result store closed; rerun with -store-dir %s to continue\n", *storeDir)
			}
			elog.Close()
			flushMetrics()
			os.Exit(1)
		}
		fmt.Fprintf(out, "## %s — %s\n\n", strings.ToUpper(id[:1])+id[1:], f.Title)
		claim := claims[id]
		if claim == "" {
			claim = "(no recorded claim)"
		}
		fmt.Fprintf(out, "**Paper:** %s\n\n", claim)
		if len(f.Rows) > 0 {
			fmt.Fprintln(out, "**Measured:**")
			fmt.Fprintln(out)
			fmt.Fprintf(out, "| %s |\n", strings.Join(f.Header, " | "))
			seps := make([]string, len(f.Header))
			for i := range seps {
				seps[i] = "---"
			}
			fmt.Fprintf(out, "| %s |\n", strings.Join(seps, " | "))
			for _, row := range f.Rows {
				fmt.Fprintf(out, "| %s |\n", strings.Join(row, " | "))
			}
			fmt.Fprintln(out)
		}
		if len(f.Notes) > 0 {
			if len(f.Rows) == 0 {
				fmt.Fprintln(out, "**Measured:**")
				fmt.Fprintln(out)
			}
			for _, n := range f.Notes {
				fmt.Fprintf(out, "* %s\n", n)
			}
			fmt.Fprintln(out)
		}
	}

	fmt.Fprintln(out, "## Known deviations")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "* The synthetic traces reproduce calibrated miss-rate shapes, not the")
	fmt.Fprintln(out, "  original byte streams; per-workload envelope membership can differ in")
	fmt.Fprintln(out, "  individual configurations while the staircase shape and the")
	fmt.Fprintln(out, "  single-versus-two-level verdicts match.")
	fmt.Fprintln(out, "* At 50ns the measured envelopes keep a few more large single-level")
	fmt.Fprintln(out, "  configurations than the paper's (the synthetic workloads' compulsory-miss")
	fmt.Fprintln(out, "  floors are slightly flatter than the originals'); the paper's own claim —")
	fmt.Fprintln(out, "  two-level is only marginally better at 50ns — still holds.")
	fmt.Fprintln(out, "* In Figures 10-16 the count of single-level envelope members does not drop")
	fmt.Fprintln(out, "  for every workload as the paper observes, but the two-level share of the")
	fmt.Fprintln(out, "  envelope grows for every workload, which is the operative §6 conclusion.")
	flushMetrics()
	if !closeStore() {
		out.Flush()
		elog.Close()
		os.Exit(1)
	}
}
