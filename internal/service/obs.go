package service

// This file wires the job service into the observability layer
// (internal/obs): the canonical metric names the manager maintains, the
// pre-resolved instrument bundle, and the event type tags of the job
// lifecycle journal. Everything follows the obs nil-safety contract —
// with Config.Metrics and Config.Events unset the instruments are nil
// no-ops.

import (
	"twolevel/internal/model"
	"twolevel/internal/obs"
)

// Metric names the Manager maintains on Config.Metrics.
const (
	// MetricJobsSubmitted counts accepted jobs.
	MetricJobsSubmitted = "service_jobs_submitted_total"
	// MetricJobsDone counts jobs that completed with every evaluation
	// successful.
	MetricJobsDone = "service_jobs_done_total"
	// MetricJobsFailed counts jobs that completed with at least one
	// failed evaluation.
	MetricJobsFailed = "service_jobs_failed_total"
	// MetricJobsCancelled counts jobs cancelled before completion.
	MetricJobsCancelled = "service_jobs_cancelled_total"
	// MetricJobsShed counts submissions refused by admission control
	// (queue or active-job limits) — the HTTP layer's 429s.
	MetricJobsShed = "service_jobs_shed_total"
	// MetricJobsExpired counts jobs cut off by their per-request
	// deadline.
	MetricJobsExpired = "service_jobs_expired_total"
	// MetricStoreHits counts evaluations satisfied from the result store.
	MetricStoreHits = "service_store_hits_total"
	// MetricStoreMisses counts evaluations the store could not satisfy
	// (scheduled onto the worker pool, or coalesced onto an identical
	// in-flight evaluation).
	MetricStoreMisses = "service_store_misses_total"
	// MetricTasksCoalesced counts evaluations coalesced onto an identical
	// evaluation already in flight for another job.
	MetricTasksCoalesced = "service_tasks_coalesced_total"
	// MetricTasksDone counts evaluations completed by the worker pool.
	MetricTasksDone = "service_tasks_done_total"
	// MetricTasksFailed counts evaluations that failed permanently.
	MetricTasksFailed = "service_tasks_failed_total"
	// MetricTasksPredicted counts approximate points produced by the
	// fast tier's analytical predictors (fast.go).
	MetricTasksPredicted = "service_tasks_predicted_total"
	// MetricTasksRefined counts approximate points replaced by their
	// exact evaluation (the fast→exact handoff).
	MetricTasksRefined = "service_tasks_refined_total"
	// MetricQueueDepth gauges evaluations queued but not yet picked up by
	// a worker.
	MetricQueueDepth = "service_queue_depth"
	// MetricJobsActive gauges jobs submitted but not yet finished.
	MetricJobsActive = "service_jobs_active"
	// MetricWorkers gauges the evaluation worker-pool size.
	MetricWorkers = "service_workers"
	// MetricStoreSize gauges the number of memoized points.
	MetricStoreSize = "service_store_points"
	// MetricReady gauges readiness: 1 while the manager accepts jobs, 0
	// once shutdown begins (mirrors GET /readyz).
	MetricReady = "service_ready"
	// MetricStorePoisoned gauges durable-store health: 1 once the disk
	// store records a sticky persistence failure (segment poisoning), 0
	// while appends reach disk. A poisoned store also flips /readyz to
	// 503 so the degradation is routed around instead of silent.
	MetricStorePoisoned = "service_store_poisoned"
	// MetricProgressStreams gauges currently open SSE job-progress
	// streams (GET /v1/jobs/{id}/events).
	MetricProgressStreams = "service_progress_streams"
	// MetricStreamEventsDropped counts events a slow SSE subscriber's
	// buffer discarded (the stream stays live; the terminal state event
	// is synthesized from the job, so nothing authoritative is lost).
	MetricStreamEventsDropped = "service_stream_events_dropped_total"
	// MetricJobSeconds is the per-job wall-time histogram (submission to
	// completion).
	MetricJobSeconds = "service_job_seconds"
)

// Event type tags emitted by the job service on Config.Events. Task
// events carry the job id in Event.Job and the configuration label in
// Event.Label: each evaluation that finishes while its job is running
// emits one task_done or task_error for that job. Retries
// (config_retry) arrive from the shared sweep instrumentation.
const (
	EventJobSubmitted  = "job_submitted"
	EventJobDone       = "job_done"
	EventJobCancelled  = "job_cancelled"
	EventJobShed       = "job_shed"
	EventJobExpired    = "job_expired"
	EventTaskCached    = "task_cached"
	EventTaskCoalesced = "task_coalesced"
	EventTaskDone      = "task_done"
	EventTaskError     = "task_error"
	EventTaskPredicted = "task_predicted"
	EventTaskRefined   = "task_refined"
)

// svcMetrics is the instrument bundle the manager updates. Instruments
// are resolved once at construction so the per-task path stays at plain
// atomic updates.
type svcMetrics struct {
	jobsSubmitted  *obs.Counter
	jobsDone       *obs.Counter
	jobsFailed     *obs.Counter
	jobsCancelled  *obs.Counter
	jobsShed       *obs.Counter
	jobsExpired    *obs.Counter
	storeHits      *obs.Counter
	storeMisses    *obs.Counter
	coalesced      *obs.Counter
	tasksDone      *obs.Counter
	tasksFailed    *obs.Counter
	tasksPredicted *obs.Counter
	tasksRefined   *obs.Counter
	// absTPIErr is the model-accuracy histogram (model.MetricAbsTPIError)
	// observed at every fast→exact refinement.
	absTPIErr       *obs.Histogram
	queueDepth      *obs.Gauge
	jobsActive      *obs.Gauge
	workers         *obs.Gauge
	storeSize       *obs.Gauge
	ready           *obs.Gauge
	storePoisoned   *obs.Gauge
	progressStreams *obs.Gauge
	streamDropped   *obs.Counter
	jobSeconds      *obs.Histogram
}

// newSvcMetrics resolves the service instruments (all nil on a nil
// registry).
func newSvcMetrics(r *obs.Registry) *svcMetrics {
	return &svcMetrics{
		jobsSubmitted:   r.Counter(MetricJobsSubmitted),
		jobsDone:        r.Counter(MetricJobsDone),
		jobsFailed:      r.Counter(MetricJobsFailed),
		jobsCancelled:   r.Counter(MetricJobsCancelled),
		jobsShed:        r.Counter(MetricJobsShed),
		jobsExpired:     r.Counter(MetricJobsExpired),
		storeHits:       r.Counter(MetricStoreHits),
		storeMisses:     r.Counter(MetricStoreMisses),
		coalesced:       r.Counter(MetricTasksCoalesced),
		tasksDone:       r.Counter(MetricTasksDone),
		tasksFailed:     r.Counter(MetricTasksFailed),
		tasksPredicted:  r.Counter(MetricTasksPredicted),
		tasksRefined:    r.Counter(MetricTasksRefined),
		absTPIErr:       r.Histogram(model.MetricAbsTPIError, model.AbsTPIErrorBounds()),
		queueDepth:      r.Gauge(MetricQueueDepth),
		jobsActive:      r.Gauge(MetricJobsActive),
		workers:         r.Gauge(MetricWorkers),
		storeSize:       r.Gauge(MetricStoreSize),
		ready:           r.Gauge(MetricReady),
		storePoisoned:   r.Gauge(MetricStorePoisoned),
		progressStreams: r.Gauge(MetricProgressStreams),
		streamDropped:   r.Counter(MetricStreamEventsDropped),
		// Jobs run from milliseconds (fully cached) to hours.
		jobSeconds: r.Histogram(MetricJobSeconds, obs.ExpBuckets(0.001, 2, 24)),
	}
}
