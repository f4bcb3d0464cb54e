package sweep

import (
	"testing"

	"twolevel/internal/obs"
)

// TestProgressSummaryETA pins the ETA arithmetic against the degenerate
// registry states a live scrape can observe: nothing finished yet, a
// clock-skewed (negative) wall-time sample, and a finished count that
// overshoots the total. The workers gauge does not enter it: RunContext
// evaluates one configuration at a time.
func TestProgressSummaryETA(t *testing.T) {
	cases := []struct {
		name string
		// done/skipped/failed/total/workers seed the counters and gauges;
		// samples feed the per-configuration wall-time histogram.
		done, skipped, failed, total, workers int64
		samples                               []float64
		wantETA                               float64
		wantPct                               float64
	}{
		{
			name: "zero done, no samples",
			// Before the first completion the mean is 0, so the ETA must
			// stay 0 rather than claiming an instant finish.
			total: 10, workers: 4,
			wantETA: 0, wantPct: 0,
		},
		{
			name: "steady state",
			done: 5, total: 10, workers: 2,
			samples: []float64{2, 2, 2, 2, 2},
			wantETA: 5 * 2.0, wantPct: 50,
		},
		{
			name: "clock skew yields negative mean",
			// A backwards wall-clock step can record a negative duration;
			// the summary must not extrapolate a negative ETA from it.
			done: 2, total: 10, workers: 2,
			samples: []float64{-3, -3},
			wantETA: 0, wantPct: 20,
		},
		{
			name: "zero workers gauge",
			done: 5, total: 10,
			samples: []float64{4, 4, 4, 4, 4},
			wantETA: 5 * 4.0, wantPct: 50,
		},
		{
			name: "skips and failures count as finished",
			done: 2, skipped: 2, failed: 1, total: 10, workers: 1,
			samples: []float64{3, 3},
			wantETA: 5 * 3.0, wantPct: 50,
		},
		{
			name: "finished beyond total",
			// A stale total gauge (e.g. two overlapping sweeps) can leave
			// finished > total; remaining must clamp to 0, not go negative.
			done: 12, total: 10, workers: 2,
			samples: []float64{1, 1},
			wantETA: 0, wantPct: 120,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			reg.Counter(MetricConfigsDone).Add(uint64(tc.done))
			reg.Counter(MetricConfigsSkipped).Add(uint64(tc.skipped))
			reg.Counter(MetricConfigErrors).Add(uint64(tc.failed))
			reg.Gauge(MetricConfigsTotal).Set(tc.total)
			reg.Gauge(MetricWorkers).Set(tc.workers)
			h := reg.Histogram(MetricConfigSeconds, obs.ExpBuckets(0.001, 2, 24))
			for _, v := range tc.samples {
				h.Observe(v)
			}
			p, ok := ProgressSummary(reg)().(Progress)
			if !ok {
				t.Fatal("ProgressSummary did not return a Progress")
			}
			if p.ETASeconds != tc.wantETA {
				t.Errorf("ETASeconds = %v, want %v", p.ETASeconds, tc.wantETA)
			}
			if p.PctDone != tc.wantPct {
				t.Errorf("PctDone = %v, want %v", p.PctDone, tc.wantPct)
			}
			if p.ETASeconds < 0 {
				t.Errorf("ETASeconds went negative: %v", p.ETASeconds)
			}
		})
	}
}
