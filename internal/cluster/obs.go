package cluster

// This file wires the cluster into the observability and fault-injection
// layers: the canonical metric names of the lease lifecycle, the event
// type tags of the cluster journal, the chaos sites of every distributed
// failure path, and the pre-resolved instrument bundles. Everything
// follows the obs/chaos nil-safety contract — with no registry, event
// log, or injector configured the hooks cost a nil check.

import "twolevel/internal/obs"

// Coordinator metric names.
const (
	// MetricWorkersLive gauges workers currently registered and
	// heartbeating.
	MetricWorkersLive = "cluster_workers_live"
	// MetricWorkersRegistered counts worker registrations (a worker that
	// reconnects after being declared dead counts again).
	MetricWorkersRegistered = "cluster_workers_registered_total"
	// MetricWorkersDead counts workers declared dead after missing
	// heartbeats for the lease TTL.
	MetricWorkersDead = "cluster_workers_dead_total"
	// MetricLeasesGranted counts leases handed to workers.
	MetricLeasesGranted = "cluster_leases_granted_total"
	// MetricLeasesCompleted counts leases whose every point was
	// completed by the holder.
	MetricLeasesCompleted = "cluster_leases_completed_total"
	// MetricLeasesExpired counts leases reclaimed because the holder
	// stopped heartbeating before completing them.
	MetricLeasesExpired = "cluster_leases_expired_total"
	// MetricLeasesActive gauges leases currently outstanding.
	MetricLeasesActive = "cluster_leases_active"
	// MetricPointsLeased counts evaluation points handed out under
	// leases (a stolen point re-leased to another worker counts again).
	MetricPointsLeased = "cluster_points_leased_total"
	// MetricPointsCompleted counts points completed exactly once into
	// the job service (duplicates are not counted here).
	MetricPointsCompleted = "cluster_points_completed_total"
	// MetricPointsFailed counts points whose evaluation failed
	// permanently on a worker.
	MetricPointsFailed = "cluster_points_failed_total"
	// MetricPointsStolen counts in-flight points returned to the queue
	// from expired leases — the work-stealing path.
	MetricPointsStolen = "cluster_points_stolen_total"
	// MetricPointsInflight gauges points drawn from the job service and
	// not yet completed (queued for re-lease or out under a lease).
	MetricPointsInflight = "cluster_points_inflight"
	// MetricDuplicateResults counts result pushes for points already
	// completed — a zombie worker finishing after its lease was stolen.
	// Each lands as a content-addressed store no-op, never a
	// double-delivery.
	MetricDuplicateResults = "cluster_duplicate_results_total"
	// MetricBadResults counts result pushes that failed to decode; the
	// point is returned to the queue for re-evaluation.
	MetricBadResults = "cluster_bad_results_total"
)

// Failover metric names (coordinator side).
const (
	// MetricCoordinatorRestarts counts coordinator boots that replayed a
	// non-empty journal — i.e. restarts recovering prior cluster state.
	MetricCoordinatorRestarts = "cluster_coordinator_restarts_total"
	// MetricOrphanLeasesReconciled counts journaled leases fully
	// resolved after a restart: every key reclaimed by its re-registering
	// worker, completed by a buffered push, or stolen on grace expiry.
	MetricOrphanLeasesReconciled = "cluster_orphan_leases_reconciled_total"
	// MetricOrphanUnits gauges units still orphaned — replayed from
	// journaled leases and awaiting reconciliation. The coordinator's
	// /readyz answers 503 journal-replaying while this is nonzero.
	MetricOrphanUnits = "cluster_orphan_units"

	// MetricJournalAppends counts records fsynced to the cluster journal.
	MetricJournalAppends = "cluster_journal_appends_total"
	// MetricJournalCompactions counts checkpoint+truncate compactions.
	MetricJournalCompactions = "cluster_journal_compactions_total"
	// MetricJournalTornRepaired counts torn journal tails truncated on
	// replay.
	MetricJournalTornRepaired = "cluster_journal_torn_repaired_total"
	// MetricJournalCorruptDropped counts CRC-failing journal lines
	// skipped on replay.
	MetricJournalCorruptDropped = "cluster_journal_corrupt_dropped_total"
)

// Worker metric names.
const (
	// MetricWorkerConnected gauges 1 while the worker is registered with
	// its coordinator.
	MetricWorkerConnected = "cluster_worker_connected"
	// MetricWorkerLeases counts leases this worker received.
	MetricWorkerLeases = "cluster_worker_leases_total"
	// MetricWorkerPoints counts points this worker evaluated.
	MetricWorkerPoints = "cluster_worker_points_total"
	// MetricWorkerPointFailures counts evaluations that failed on this
	// worker.
	MetricWorkerPointFailures = "cluster_worker_point_failures_total"
	// MetricWorkerPushFailures counts completed leases whose result push
	// never reached the coordinator (the lease will be stolen and
	// re-run).
	MetricWorkerPushFailures = "cluster_worker_push_failures_total"
	// MetricWorkerRPCRetries counts retried coordinator RPCs.
	MetricWorkerRPCRetries = "cluster_worker_rpc_retries_total"
	// MetricWorkerReconnects counts successful re-registrations after the
	// circuit breaker opened on a coordinator outage.
	MetricWorkerReconnects = "cluster_worker_reconnects_total"
	// MetricCompletionsBuffered gauges completion pushes held locally
	// while the coordinator is unreachable, flushed on reconnect.
	MetricCompletionsBuffered = "cluster_completions_buffered"
	// MetricWorkerCircuitState gauges the coordinator-link circuit
	// breaker: 0 closed (healthy), 1 half-open (probing), 2 open
	// (outage).
	MetricWorkerCircuitState = "cluster_worker_circuit_state"
)

// Event type tags emitted on the cluster journal. Worker identity rides
// in Event.Worker, lease identity in Event.Lease.
const (
	EventWorkerRegistered = "cluster_worker_registered"
	EventWorkerDead       = "cluster_worker_dead"
	EventLeaseGranted     = "cluster_lease_granted"
	EventLeaseCompleted   = "cluster_lease_completed"
	EventLeaseExpired     = "cluster_lease_expired"
	EventResultDuplicate  = "cluster_result_duplicate"

	// Failover lifecycle. EventJournalReplayed marks a coordinator boot
	// that recovered journaled state; EventOrphanReclaimed, one journaled
	// lease re-attached to its re-registering worker; EventOrphanExpired,
	// one journaled lease whose units were stolen back to the ready
	// queue on grace expiry; EventWorkerReconnected, a worker closing its
	// circuit breaker after an outage (Total carries the flushed pushes).
	EventJournalReplayed   = "cluster_journal_replayed"
	EventOrphanReclaimed   = "cluster_orphan_reclaimed"
	EventOrphanExpired     = "cluster_orphan_expired"
	EventWorkerReconnected = "cluster_worker_reconnected"
)

// Chaos-injection sites of the cluster. Tests install internal/chaos
// rules against these names to prove every distributed failure path
// deterministically.
const (
	// ChaosSiteRegister fires in the coordinator's register handler; an
	// injected error answers 503 and the worker retries.
	ChaosSiteRegister = "cluster.register"
	// ChaosSiteHeartbeat fires in the coordinator's heartbeat handler.
	ChaosSiteHeartbeat = "cluster.heartbeat"
	// ChaosSiteLease fires in the coordinator's lease-grant handler.
	ChaosSiteLease = "cluster.lease"
	// ChaosSiteComplete fires in the coordinator's result-push handler;
	// an injected error models a push lost on the wire — the worker
	// retries, and if it gives up the lease expires and is stolen.
	ChaosSiteComplete = "cluster.complete"

	// ChaosSiteWorkerRegister fires before a worker's register RPC.
	ChaosSiteWorkerRegister = "cluster.worker.register"
	// ChaosSiteWorkerHeartbeat fires before a worker's heartbeat RPC; an
	// injected error drops the beat, so a Times-unlimited rule kills the
	// worker from the coordinator's point of view.
	ChaosSiteWorkerHeartbeat = "cluster.worker.heartbeat"
	// ChaosSiteWorkerLease fires before a worker's lease RPC.
	ChaosSiteWorkerLease = "cluster.worker.lease"
	// ChaosSiteWorkerComplete fires before a worker's result push; an
	// injected error makes the worker retry, then abandon the push.
	ChaosSiteWorkerComplete = "cluster.worker.complete"
	// ChaosSiteWorkerCrash fires after each evaluated point; a Panic
	// rule is the deterministic stand-in for kill -9 — the worker dies
	// mid-lease with results unpushed, heartbeats stop, and the
	// coordinator must steal the lease.
	ChaosSiteWorkerCrash = "cluster.worker.crash"
	// ChaosSiteWorkerReconnect fires before each reconnect probe while
	// the worker's circuit breaker is open; an injected error fails the
	// probe and the backoff schedule advances.
	ChaosSiteWorkerReconnect = "cluster.worker.reconnect"

	// ChaosSiteJournalAppend fires on every cluster-journal append (Hit,
	// then as the record write's fault writer): an Err rule poisons the
	// journal, a Short rule tears the record mid-write exactly as a
	// crash would — the next replay truncates it.
	ChaosSiteJournalAppend = "cluster.journal.append"
	// ChaosSiteJournalReplay fires at journal open, before replay.
	ChaosSiteJournalReplay = "cluster.journal.replay"
	// ChaosSiteJournalCompact fires at the start of checkpoint+truncate
	// compaction; an injected error aborts the compaction (the journal
	// keeps appending to the uncompacted file).
	ChaosSiteJournalCompact = "cluster.journal.compact"
)

// coordMetrics is the coordinator's instrument bundle.
type coordMetrics struct {
	workersLive       *obs.Gauge
	workersRegistered *obs.Counter
	workersDead       *obs.Counter
	leasesGranted     *obs.Counter
	leasesCompleted   *obs.Counter
	leasesExpired     *obs.Counter
	leasesActive      *obs.Gauge
	pointsLeased      *obs.Counter
	pointsCompleted   *obs.Counter
	pointsFailed      *obs.Counter
	pointsStolen      *obs.Counter
	pointsInflight    *obs.Gauge
	duplicateResults  *obs.Counter
	badResults        *obs.Counter
	feedUpdates       *obs.Counter
	restarts          *obs.Counter
	orphansReconciled *obs.Counter
	orphanUnits       *obs.Gauge
}

func newCoordMetrics(r *obs.Registry) *coordMetrics {
	return &coordMetrics{
		workersLive:       r.Gauge(MetricWorkersLive),
		workersRegistered: r.Counter(MetricWorkersRegistered),
		workersDead:       r.Counter(MetricWorkersDead),
		leasesGranted:     r.Counter(MetricLeasesGranted),
		leasesCompleted:   r.Counter(MetricLeasesCompleted),
		leasesExpired:     r.Counter(MetricLeasesExpired),
		leasesActive:      r.Gauge(MetricLeasesActive),
		pointsLeased:      r.Counter(MetricPointsLeased),
		pointsCompleted:   r.Counter(MetricPointsCompleted),
		pointsFailed:      r.Counter(MetricPointsFailed),
		pointsStolen:      r.Counter(MetricPointsStolen),
		pointsInflight:    r.Gauge(MetricPointsInflight),
		duplicateResults:  r.Counter(MetricDuplicateResults),
		badResults:        r.Counter(MetricBadResults),
		feedUpdates:       r.Counter(MetricFeedUpdates),
		restarts:          r.Counter(MetricCoordinatorRestarts),
		orphansReconciled: r.Counter(MetricOrphanLeasesReconciled),
		orphanUnits:       r.Gauge(MetricOrphanUnits),
	}
}

// workerMetrics is the worker's instrument bundle.
type workerMetrics struct {
	connected     *obs.Gauge
	leases        *obs.Counter
	points        *obs.Counter
	pointFailures *obs.Counter
	pushFailures  *obs.Counter
	rpcRetries    *obs.Counter
	reconnects    *obs.Counter
	buffered      *obs.Gauge
	circuitState  *obs.Gauge
}

func newWorkerMetrics(r *obs.Registry) *workerMetrics {
	return &workerMetrics{
		connected:     r.Gauge(MetricWorkerConnected),
		leases:        r.Counter(MetricWorkerLeases),
		points:        r.Counter(MetricWorkerPoints),
		pointFailures: r.Counter(MetricWorkerPointFailures),
		pushFailures:  r.Counter(MetricWorkerPushFailures),
		rpcRetries:    r.Counter(MetricWorkerRPCRetries),
		reconnects:    r.Counter(MetricWorkerReconnects),
		buffered:      r.Gauge(MetricCompletionsBuffered),
		circuitState:  r.Gauge(MetricWorkerCircuitState),
	}
}
