package main

// -compare DIR_A DIR_B reads the result files of two sets of runs (A the
// baseline, B the change) and prints, for every metric and workload,
// each side's median and quartiles and a verdict:
//
//   - improved: B reads better than A in at least nine tenths of the
//     pairs of runs (paired by seed, ties counting for neither) and the
//     medians differ by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than the metric's
//     bound in BENCHMARK.json;
//   - unresolved: A's own interquartile range is wider than the bound
//     (or the metric has no bound), unless every run of B reads better
//     than every run of A;
//   - unchanged: otherwise.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(path string) (map[string]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]specMetric{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []result
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil || r.Format != format {
			return nil, fmt.Errorf("%s: not a %s result (%v)", f, format, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", dir)
	}
	return out, nil
}

type sample struct {
	seed  uint64
	value float64
}

func runCompare(w io.Writer, specPath, dirA, dirB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	for _, rs := range [][]result{a, b} {
		for _, r := range rs {
			if r.Host != a[0].Host {
				return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", a[0].Host, r.Host)
			}
		}
	}
	type key struct{ workload, metric string }
	group := func(rs []result) map[key][]sample {
		g := map[key][]sample{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				g[k] = append(g[k], sample{r.Seed, m.Value})
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "A=%s (%d results)  B=%s (%d results)  host %s, %s, nproc %d, %s\n",
		dirA, len(a), dirB, len(b), a[0].Host.Name, a[0].Host.CPU, a[0].Host.NProc, a[0].Host.Go)
	fmt.Fprintf(w, "%-16s %-30s %-40s %-40s %8s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "verdict")
	for _, k := range keys {
		sa, sb := ga[k], gb[k]
		va, vb := values(sa), values(sb)
		qa, qb := quartiles(va), quartiles(vb)
		v := "-"
		if m, ok := spec[k.metric]; ok {
			v = verdict(pairs(sa, sb), va, vb, m)
		}
		change := "-"
		if ma := median(va); ma != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(median(vb)-ma)/math.Abs(ma))
		}
		fmt.Fprintf(w, "%-16s %-30s %-40s %-40s %8s  %s\n", k.workload, k.metric,
			fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(va), qa[0], qa[2], len(va)),
			fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(vb), qb[0], qb[2], len(vb)),
			change, v)
	}
	return nil
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// pairs matches runs of A and B made with the same seed; with no seed
// in common it pairs runs in seed order.
func pairs(a, b []sample) [][2]float64 {
	bySeed := map[uint64][]float64{}
	for _, x := range b {
		bySeed[x.seed] = append(bySeed[x.seed], x.value)
	}
	var out [][2]float64
	for _, x := range a {
		if vs := bySeed[x.seed]; len(vs) > 0 {
			out = append(out, [2]float64{x.value, vs[0]})
			bySeed[x.seed] = vs[1:]
		}
	}
	if len(out) > 0 {
		return out
	}
	sa := append([]sample(nil), a...)
	sb := append([]sample(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i].seed < sa[j].seed })
	sort.Slice(sb, func(i, j int) bool { return sb[i].seed < sb[j].seed })
	for i := 0; i < min(len(sa), len(sb)); i++ {
		out = append(out, [2]float64{sa[i].value, sb[i].value})
	}
	return out
}

// verdict applies the rules in the file comment to one metric.
func verdict(ps [][2]float64, a, b []float64, m specMetric) string {
	lower := m.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	wins := 0
	for _, p := range ps {
		if better(p[1], p[0]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	qa := quartiles(a)
	if len(ps) > 0 && 10*wins >= 9*len(ps) && better(mb, ma) && math.Abs(mb-ma) > qa[2]-qa[0] {
		return "improved"
	}
	worse := (mb - ma) / math.Abs(ma)
	if !lower {
		worse = -worse
	}
	if m.Bound == nil || (qa[2]-qa[0])/math.Abs(ma) > *m.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			return "unchanged"
		}
		return "unresolved"
	}
	if worse > *m.Bound {
		return "regressed"
	}
	return "unchanged"
}
