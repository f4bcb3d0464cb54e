package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs(" p99:evaluate:500ms , p50:job:2s ,p99.9:http:1500us")
	if err != nil {
		t.Fatal(err)
	}
	// The fractional percentile divides at runtime, matching the parser's
	// float arithmetic exactly (99.9/100 as a constant expression would
	// round differently).
	frac := 99.9
	want := []SLO{
		{Quantile: 0.99, Metric: "evaluate", Threshold: 500 * time.Millisecond},
		{Quantile: 0.50, Metric: "job", Threshold: 2 * time.Second},
		{Quantile: frac / 100, Metric: "http", Threshold: 1500 * time.Microsecond},
	}
	if len(slos) != len(want) {
		t.Fatalf("parsed %d objectives, want %d", len(slos), len(want))
	}
	for i, w := range want {
		if slos[i] != w {
			t.Errorf("slo[%d] = %+v, want %+v", i, slos[i], w)
		}
	}
	if got := slos[0].Spec(); got != "p99:evaluate:500ms" {
		t.Errorf("Spec() = %q", got)
	}

	if got, err := ParseSLOs(""); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{
		"99:evaluate:500ms",  // missing p prefix
		"p0:evaluate:500ms",  // percentile out of range
		"p101:evaluate:1s",   // percentile out of range
		"p99::1s",            // no metric
		"p99:evaluate:fast",  // bad duration
		"p99:evaluate:-1s",   // nonpositive duration
		"p99:evaluate",       // missing field
		"pxx:evaluate:500ms", // non-numeric percentile
	} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted, want error", bad)
		}
	}
}

func TestEvalSLOs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sweep_config_seconds", []float64{0.1, 0.2, 0.4})
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all observations in the first bucket
	}
	snap := r.Snapshot()
	slos := []SLO{
		{Quantile: 0.99, Metric: "evaluate", Threshold: 500 * time.Millisecond}, // holds
		{Quantile: 0.99, Metric: "evaluate", Threshold: 50 * time.Millisecond},  // violated
		{Quantile: 0.99, Metric: "absent", Threshold: time.Second},              // vacuous
	}
	vs := EvalSLOs(slos, snap, map[string]string{"evaluate": "sweep_config_seconds"})
	if len(vs) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(vs))
	}
	byThreshold := map[float64]SLOVerdict{}
	for _, v := range vs {
		byThreshold[v.ThresholdS] = v
	}
	if v := byThreshold[0.5]; !v.Pass || v.Count != 100 || v.Metric != "sweep_config_seconds" || v.Burn <= 0 || v.Burn >= 1 {
		t.Errorf("holding objective = %+v", v)
	}
	if v := byThreshold[0.05]; v.Pass || v.Burn <= 1 {
		t.Errorf("violated objective = %+v", v)
	}
	if v := byThreshold[1]; !v.Pass || v.Count != 0 || v.Burn != 0 {
		t.Errorf("vacuous objective = %+v", v)
	}

	var b strings.Builder
	pw := NewPromWriter(&b)
	WriteSLOVerdicts(pw, vs)
	out := b.String()
	for _, frag := range []string{"# TYPE slo_burn gauge", "# TYPE slo_pass gauge", `slo="p99:evaluate:500ms"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("verdict exposition missing %q:\n%s", frag, out)
		}
	}
	promLint(t, out)
}

// TestHistogramQuantileTable pins the interpolated estimator on the
// edge cases: empty histograms, single buckets, exact boundaries, and
// the overflow (+Inf) tail.
func TestHistogramQuantileTable(t *testing.T) {
	mk := func(bounds []float64, counts []uint64) HistogramSnapshot {
		var n uint64
		for _, c := range counts {
			n += c
		}
		return HistogramSnapshot{Bounds: bounds, Counts: counts, Count: n}
	}
	cases := []struct {
		name string
		h    HistogramSnapshot
		q    float64
		want float64
	}{
		{"empty", mk([]float64{1, 2}, []uint64{0, 0, 0}), 0.5, 0},
		{"no-bounds", HistogramSnapshot{Count: 3}, 0.5, 0},
		{"single-bucket-mid", mk([]float64{10}, []uint64{4, 0}), 0.5, 5},
		{"single-bucket-top", mk([]float64{10}, []uint64{4, 0}), 1, 10},
		{"uniform-p50", mk([]float64{1, 2, 4}, []uint64{2, 1, 1, 1}), 0.5, 1.5},
		{"uniform-p100-overflow", mk([]float64{1, 2, 4}, []uint64{2, 1, 1, 1}), 1, 4},
		{"all-overflow", mk([]float64{1, 2}, []uint64{0, 0, 5}), 0.99, 2},
		{"clamp-low", mk([]float64{10}, []uint64{4, 0}), -1, 2.5},
		{"clamp-high", mk([]float64{10}, []uint64{4, 0}), 2, 10},
		{"second-bucket", mk([]float64{1, 3}, []uint64{1, 3, 0}), 0.625, 2},
	}
	for _, c := range cases {
		if got := c.h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
}
