package sweep

// This file wires the sweep runner into the observability layer
// (internal/obs): the canonical metric names RunContext maintains, the
// pre-resolved instrument bundle it updates on the hot path, and the
// progress/ETA summary the cmd tools serve at /progress. Everything is
// nil-safe — with Options.Metrics and Options.Events unset the
// instruments are nil no-ops and a sweep runs exactly as before.

import (
	"twolevel/internal/obs"
)

// Metric names RunContext maintains on Options.Metrics.
const (
	// MetricConfigsTotal is a gauge accumulating the size of every sweep
	// started on the registry.
	MetricConfigsTotal = "sweep_configs_total"
	// MetricConfigsDone counts configurations evaluated to completion.
	MetricConfigsDone = "sweep_configs_done_total"
	// MetricConfigsSkipped counts configurations served from
	// Options.Store without re-evaluation.
	MetricConfigsSkipped = "sweep_configs_skipped_total"
	// MetricConfigErrors counts configurations that failed permanently.
	MetricConfigErrors = "sweep_config_errors_total"
	// MetricRetries counts re-attempts after transient failures.
	MetricRetries = "sweep_retries_total"
	// MetricPanics counts evaluation attempts that panicked.
	MetricPanics = "sweep_panics_total"
	// MetricTimeouts counts evaluation attempts that hit the
	// per-configuration timeout.
	MetricTimeouts = "sweep_timeouts_total"
	// MetricQueueDepth gauges configurations enqueued but not yet picked
	// up by a worker.
	MetricQueueDepth = "sweep_queue_depth"
	// MetricWorkers gauges the worker-pool size of the current sweep.
	MetricWorkers = "sweep_workers"
	// MetricConfigSeconds is the per-configuration wall-time histogram.
	MetricConfigSeconds = "sweep_config_seconds"
)

// runMetrics is the instrument bundle RunContext updates. Resolving the
// instruments once up front keeps the per-configuration path to plain
// atomic increments.
type runMetrics struct {
	total      *obs.Gauge
	workers    *obs.Gauge
	queueDepth *obs.Gauge
	done       *obs.Counter
	skipped    *obs.Counter
	failures   *obs.Counter
	retries    *obs.Counter
	panics     *obs.Counter
	timeouts   *obs.Counter
	cfgSeconds *obs.Histogram
}

// newRunMetrics resolves the sweep instruments (all nil on a nil
// registry).
func newRunMetrics(r *obs.Registry) *runMetrics {
	return &runMetrics{
		total:      r.Gauge(MetricConfigsTotal),
		workers:    r.Gauge(MetricWorkers),
		queueDepth: r.Gauge(MetricQueueDepth),
		done:       r.Counter(MetricConfigsDone),
		skipped:    r.Counter(MetricConfigsSkipped),
		failures:   r.Counter(MetricConfigErrors),
		retries:    r.Counter(MetricRetries),
		panics:     r.Counter(MetricPanics),
		timeouts:   r.Counter(MetricTimeouts),
		// Configurations run milliseconds to minutes.
		cfgSeconds: r.Histogram(MetricConfigSeconds, obs.ExpBuckets(0.001, 2, 24)),
	}
}

// Progress is the live run summary served at /progress: completion
// counts plus an ETA computed from the wall-time histogram.
type Progress struct {
	Done    int64 `json:"done"`
	Skipped int64 `json:"skipped"`
	Failed  int64 `json:"failed"`
	Total   int64 `json:"total"`
	// PctDone is (Done+Skipped+Failed)/Total in percent.
	PctDone    float64 `json:"pct_done"`
	QueueDepth int64   `json:"queue_depth"`
	Workers    int64   `json:"workers"`
	// MeanConfigSeconds and P90ConfigSeconds summarize the completed
	// configurations' wall times.
	MeanConfigSeconds float64 `json:"mean_config_seconds"`
	P90ConfigSeconds  float64 `json:"p90_config_seconds"`
	// ETASeconds estimates the remaining wall time:
	// remaining × mean / workers. Zero until the first completion.
	ETASeconds float64 `json:"eta_seconds"`
}

// ProgressSummary returns a closure computing the current Progress from
// the sweep metrics in r, in the shape obs.NewMux's summary parameter
// expects.
func ProgressSummary(r *obs.Registry) func() any {
	return func() any {
		s := r.Snapshot()
		p := Progress{
			Done:       int64(s.Counters[MetricConfigsDone]),
			Skipped:    int64(s.Counters[MetricConfigsSkipped]),
			Failed:     int64(s.Counters[MetricConfigErrors]),
			Total:      s.Gauges[MetricConfigsTotal],
			QueueDepth: s.Gauges[MetricQueueDepth],
			Workers:    s.Gauges[MetricWorkers],
		}
		h := s.Histograms[MetricConfigSeconds]
		p.MeanConfigSeconds = h.Mean()
		p.P90ConfigSeconds = h.Quantile(0.9)
		finished := p.Done + p.Skipped + p.Failed
		if p.Total > 0 {
			p.PctDone = 100 * float64(finished) / float64(p.Total)
		}
		if remaining := p.Total - finished; remaining > 0 && p.MeanConfigSeconds > 0 {
			workers := p.Workers
			if workers < 1 {
				workers = 1
			}
			p.ETASeconds = float64(remaining) * p.MeanConfigSeconds / float64(workers)
		}
		return p
	}
}
