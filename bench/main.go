// Command bench is the repository's performance ledger. It runs four
// workloads over the paper's design space and prints, by name and with
// units, the end-to-end metrics a user sees (untraced) and the per-layer
// costs behind them (a separate traced run), after checking that the
// program's outputs are correct.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh -workload all -seed 0
//	bash bench/run.sh --workload paper-exact --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh -compare bench/out-before bench/out
//
// Each workload run happens in a child process of its own, so it starts
// from a fresh heap and reports its own peak memory. The child sets the
// workload up several times (the set-up time is their median), measures
// it and reports its result; the parent writes
// bench/out/<workload>.seed<N>.json (untraced) or .layers.json (traced)
// and prints the metrics. The traced child also writes a Chrome
// trace_event file, .trace.json, which Perfetto loads. The last line of
// the output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"twolevel/internal/core"
)

// metricDef names one metric BENCHMARK.json declares: every workload
// reports every end-to-end metric from its untraced run and every
// per-layer metric from its traced run. BENCHMARK.json adds the
// direction and the regression bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"trace.gen_ns_per_ref", "ns"},
	{"trace.newgen_ms", "ms"},
	{"trace.ref_bytes", "B"},
	{"core.l1_ns_per_ref", "ns"},
	{"core.l2_ns_per_access", "ns"},
	{"core.ns_per_refcfg", "ns"},
	{"core.l1_miss_frac", "ratio"},
	{"core.l2_access_frac", "ratio"},
	{"timing.price_us_per_config", "us"},
	{"model.profile_ns_per_ref", "ns"},
	{"model.predict_us_per_config", "us"},
	{"model.tpi_err_pct", "%"},
	{"model.winner_agree_pct", "%"},
	{"sweep.attributed_frac", "ratio"},
	{"sweep.worker_busy_frac", "ratio"},
	{"go.alloc_mb_per_pass", "MB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// workloadDef is one workload. setup builds its inputs and everything
// else that must exist before the first timed operation.
type workloadDef struct {
	name  string
	setup func(o options, traced bool) (workload, error)
}

// workload is a set-up workload, ready to measure.
type workload interface {
	measure() (*result, error)
	close() error
}

var workloads = []workloadDef{
	{"paper-exact", sweepSetup("paper-exact", tierExact, core.Conventional)},
	{"paper-exclusive", sweepSetup("paper-exclusive", tierExact, core.Exclusive)},
	{"paper-fast", sweepSetup("paper-fast", tierFast, core.Conventional)},
	{"serve-mix", serveSetup},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	tiny     bool
}

const (
	// childEnv marks the child process that runs one workload.
	childEnv = "TWOLEVEL_BENCH_CHILD"
	// setupReps is how many times an untraced run sets its workload up,
	// tearing down all but the last; setup_s is their median.
	setupReps = 5
	format    = "twolevel-bench/1"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 0, "input seed; 0 keeps the calibrated paper traces (the only seed with pinned digests)")
	fs.IntVar(&o.seconds, "seconds", 15, "how long one run measures")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced end-to-end run; 1: traced per-layer run; -1: both")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes: 20k references, one pass, 2 s of load")
	compare := fs.Bool("compare", false, "compare the results in two directories: -compare DIR_A DIR_B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result directories")
			return 2
		}
		if err := runCompare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s, all)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if os.Getenv(childEnv) != "" {
		return runChild(selected[0], o, stdout)
	}
	modes := []bool{false, true}
	if o.trace >= 0 {
		modes = []bool{o.trace == 1}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		for _, traced := range modes {
			res, err := measure(o, w.name, traced)
			if err == nil {
				err = res.writeFile(o.out)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			if err := res.report(stdout, declared); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// runChild is the child process: it sets the workload up (setupReps
// times when untraced, tearing down all but the last), measures it and
// prints the result as JSON.
func runChild(w workloadDef, o options, stdout io.Writer) int {
	res, err := setUpAndMeasure(w, o, o.trace == 1)
	if err == nil {
		res.Workload, res.Seed, res.Traced, res.Seconds, res.Tiny = w.name, o.seed, o.trace == 1, o.seconds, o.tiny
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func setUpAndMeasure(w workloadDef, o options, traced bool) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var wl workload
	for i := 0; i < reps; i++ {
		if wl != nil {
			if err := wl.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if wl, err = w.setup(o, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(time.Since(t0)))
	}
	res, err := wl.measure()
	if err = errors.Join(err, wl.close()); err != nil {
		return nil, err
	}
	if !traced {
		res.setSamples("setup_s", setups, median, "s")
	}
	return res, nil
}

// measure runs one workload in a child process, which starts from a
// fresh heap, and checks that it reported every declared metric.
func measure(o options, workload string, traced bool) (*result, error) {
	res, err := spawn(o, workload, traced)
	if err != nil {
		return nil, err
	}
	declared := perLayer
	if !traced {
		declared = endToEnd
	}
	for _, d := range declared {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			res.problem("metric %s (%s) not reported", d.name, d.unit)
		}
	}
	res.Host = currentHost()
	res.Date = time.Now().UTC().Format(time.RFC3339)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// spawn runs this program as a child on one workload and returns its
// result.
func spawn(o options, workload string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.out}
	if o.tiny {
		args = append(args, "-tiny")
	}
	// A child that overruns every budget is killed rather than waited
	// for without end.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(4*o.seconds)*time.Second+5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// result is one run of one workload, as written to bench/out and read
// back by -compare.
type result struct {
	Format    string            `json:"format"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   int               `json:"seconds"`
	Tiny      bool              `json:"tiny,omitempty"`
	Host      host              `json:"host"`
	Date      string            `json:"date"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit and, where it summarizes
// samples, their count and range.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

func newResult() *result {
	return &result{Format: format, Metrics: map[string]metric{}}
}

func (r *result) problem(f string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(f, args...))
}

// set records a metric; a value that is not a finite number is a
// problem, not a metric.
func (r *result) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s has no value", name)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// setSamples records summary(xs), with the samples' count and range.
func (r *result) setSamples(name string, xs []float64, summary func([]float64) float64, unit string) {
	if len(xs) == 0 {
		r.problem("metric %s has no samples", name)
		return
	}
	s := sorted(xs)
	r.Metrics[name] = metric{Value: summary(xs), Unit: unit, N: len(xs), Min: s[0], Max: s[len(s)-1]}
}

func (r *result) fileName() string {
	kind := "json"
	if r.Traced {
		kind = "layers.json"
	}
	return fmt.Sprintf("%s.seed%d.%s", r.Workload, r.Seed, kind)
}

func (r *result) writeFile(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(b, '\n'), 0o644)
}

// report prints every metric by name with its unit, then the last line:
// the JSON object with the declared metrics that callers read.
func (r *result) report(w io.Writer, declared []metricDef) error {
	fmt.Fprintf(w, "%s seed=%d traced=%t attempted=%d failed=%d correct=%t\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Min != 0 || m.Max != 0 {
			fmt.Fprintf(w, " min=%.6g max=%.6g", m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range declared {
		if m, ok := r.Metrics[d.name]; ok {
			line.Metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// host identifies the machine a result was measured on; -compare
// refuses to compare results from different ones.
type host struct {
	Name  string `json:"name"`
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func currentHost() host {
	name, _ := os.Hostname() // an unnamed host compares equal to itself
	return host{Name: name, CPU: cpuModel(), NProc: nproc(), Go: runtime.Version()}
}

// nproc is the number of CPUs the process may use: the sweep worker
// count and the load generator's connection cap.
func nproc() int { return runtime.NumCPU() }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the peak resident set from the current one, so
// the next peakRSSMB covers only what ran in between. Where the kernel
// does not support it, the peak stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
