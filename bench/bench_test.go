package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark's child
// processes, which the parent starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at smoke-test sizes, untraced and
// traced, and checks that every metric BENCHMARK.json names is
// reported with its unit, that every trace file is Chrome trace_event
// JSON, and that -compare accepts the results.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	spec := readBenchmarkJSON(t)
	dir := t.TempDir()
	var out bytes.Buffer
	if code := run([]string{"-tiny", "-seed", "1", "-out", dir}, &out); code != 0 {
		t.Fatalf("bench exited %d:\n%s", code, out.String())
	}
	results, err := loadResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r := findResult(t, results, w.name, traced)
			if !r.Correct {
				t.Errorf("%s traced=%t: problems %v", w.name, traced, r.Problems)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
		checkTraceFile(t, filepath.Join(dir, w.name+".seed1.trace.json"))
	}
	var cmp bytes.Buffer
	if err := runCompare(&cmp, filepath.Join("..", "BENCHMARK.json"), dir, dir); err != nil {
		t.Fatalf("-compare: %v", err)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the program
// prints on its last line equal to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, c := range []struct {
		code []metricDef
		spec []specMetric
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.code) != len(c.spec) {
			t.Fatalf("%d metrics in code, %d in BENCHMARK.json", len(c.code), len(c.spec))
		}
		for i, d := range c.code {
			if s := c.spec[i]; d.name != s.Name || d.unit != s.Unit {
				t.Errorf("metric %d: code %s (%s), BENCHMARK.json %s (%s)", i, d.name, d.unit, s.Name, s.Unit)
			}
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{9.6, 9.2, 10.1, 9.4}, [3]float64{9.25, 9.5, 9.975}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	m := specMetric{Better: "lower", Bound: &bound}
	pairsOf := func(a, b []float64) [][2]float64 {
		var ps [][2]float64
		for i := range a {
			ps = append(ps, [2]float64{a[i], b[i]})
		}
		return ps
	}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster", base, scale(0.8), "improved"},
		{"same", base, scale(1.01), "unchanged"},
		{"slower", base, scale(1.2), "regressed"},
		{"noisy baseline", noisy, noisy, "unresolved"},
	} {
		if got := verdict(pairsOf(c.a, c.b), c.a, c.b, m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func readBenchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func findResult(t *testing.T, rs []result, workload string, traced bool) result {
	t.Helper()
	for _, r := range rs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	t.Fatalf("no result for %s traced=%t", workload, traced)
	return result{}
}

// checkTraceFile requires a Chrome trace_event document with complete
// events carrying a name, timestamps and a track.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		complete++
		if e.Name == "" || e.TS == nil || e.Dur == nil || e.TID == nil || *e.Dur < 0 {
			t.Fatalf("%s: malformed event %+v", path, e)
		}
	}
	if complete == 0 {
		t.Fatalf("%s: no complete events", path)
	}
}
