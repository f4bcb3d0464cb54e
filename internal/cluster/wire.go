package cluster

// This file is the coordinator↔worker wire protocol. The exactness
// contract lives here: a work unit carries the workload name, the full
// hierarchy geometry (core.Config, whose fields are all
// JSON-round-trip-exact), and the result-determining subset of
// sweep.Options, so a worker rebuilds an evaluator that produces the
// byte-identical point a local evaluation would — and both sides can
// recompute sweep.Key from the unit to prove it. Completed points
// travel back as persisted twolevel-sweep/1 point documents
// (sweep.MarshalPointJSON), the same representation the durable store
// journals, which round-trips through JSON without changing the bytes
// sweep.SaveJSON later renders.

import (
	"encoding/json"
	"fmt"
	"time"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/timing"
)

// spanData is the wire form of one finished worker span — span.Data is
// already a flat JSON record, so the trace protocol reuses it verbatim.
type spanData = span.Data

// wireOptions is the result-determining + hardening subset of
// sweep.Options a work unit ships. Enumeration-only fields (size lists)
// and runtime plumbing (metrics, events, chaos, trace) stay on each
// side; the configuration geometry rides separately in workUnit.Config.
type wireOptions struct {
	TechScale    float64 `json:"tech_scale"`
	TechAddrBits int     `json:"tech_addr_bits"`
	OffChipNS    float64 `json:"offchip_ns"`
	DualPorted   bool    `json:"dual_ported,omitempty"`
	Refs         uint64  `json:"refs"`
	// TimeoutNS and Retries reproduce the per-configuration hardening,
	// so a remote evaluation retries and times out exactly as a local
	// one would.
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	Retries   int   `json:"retries,omitempty"`
}

// optionsToWire extracts the wire subset from a defaulted option set.
func optionsToWire(o sweep.Options) wireOptions {
	return wireOptions{
		TechScale:    o.Tech.Scale,
		TechAddrBits: o.Tech.AddrBits,
		OffChipNS:    o.OffChipNS,
		DualPorted:   o.DualPorted,
		Refs:         o.Refs,
		TimeoutNS:    int64(o.Timeout),
		Retries:      o.Retries,
	}
}

// toOptions rebuilds the evaluator option set on the worker.
func (w wireOptions) toOptions() sweep.Options {
	return sweep.Options{
		Tech:       timing.Tech{Scale: w.TechScale, AddrBits: w.TechAddrBits},
		OffChipNS:  w.OffChipNS,
		DualPorted: w.DualPorted,
		Refs:       w.Refs,
		Timeout:    time.Duration(w.TimeoutNS),
		Retries:    w.Retries,
	}
}

// workUnit is one leased (workload, configuration) evaluation.
type workUnit struct {
	// Key is the point's content address (sweep.Key). The worker
	// recomputes it from the unit and refuses to evaluate on a mismatch,
	// so protocol drift can never alias two different evaluations.
	Key      string      `json:"key"`
	Workload string      `json:"workload"`
	Options  wireOptions `json:"options"`
	Config   core.Config `json:"config"`
}

// unitKey recomputes the unit's content address from its own fields.
func unitKey(u workUnit) string {
	return sweep.Key(u.Workload, u.Config, u.Options.toOptions())
}

// validateUnit checks a received unit: known workload, simulatable
// configuration, non-negative retries, key integrity.
func validateUnit(u workUnit) error {
	if _, err := spec.ByName(u.Workload); err != nil {
		return err
	}
	if u.Options.Retries < 0 {
		return fmt.Errorf("cluster: unit %s: negative retries %d", u.Key, u.Options.Retries)
	}
	if err := u.Config.Validate(); err != nil {
		return err
	}
	if got := unitKey(u); got != u.Key {
		return errKeyMismatch(u.Key, got)
	}
	return nil
}

type registerRequest struct {
	ID string `json:"id"`
	// InflightKeys are the unit keys the worker currently holds — active
	// leases still evaluating plus completion pushes buffered during a
	// coordinator outage. A restarted coordinator matches them against
	// its orphaned (journal-replayed) leases and re-attaches the work to
	// this worker instead of stealing it.
	InflightKeys []string `json:"inflight_keys,omitempty"`
}

type registerResponse struct {
	// HeartbeatMS is the interval the worker must beat at; LeaseTTLMS is
	// how long the coordinator waits past the last contact before
	// declaring the worker dead and stealing its leases.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
}

type heartbeatRequest struct {
	ID string `json:"id"`
	// Metrics piggybacks the worker's registry snapshot for federation.
	// Workers send it only when the registry changed since the last
	// successful beat (a crc32 fingerprint decides), so an idle fleet
	// heartbeats at pre-federation payload sizes.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

type leaseRequest struct {
	ID        string `json:"id"`
	MaxPoints int    `json:"max_points"`
}

type leaseResponse struct {
	LeaseID string     `json:"lease_id"`
	Units   []workUnit `json:"units"`
}

// resultWire is one completed evaluation travelling back. Exactly one
// of Point (a persisted twolevel-sweep/1 point) or Error is set.
type resultWire struct {
	Key   string          `json:"key"`
	Point json.RawMessage `json:"point,omitempty"`
	Error string          `json:"error,omitempty"`
}

type completeRequest struct {
	ID      string       `json:"id"`
	LeaseID string       `json:"lease_id"`
	Results []resultWire `json:"results"`
	// Spans are the worker-side spans of this lease's evaluations, each
	// subtree rooted at a span carrying a "key" attribute naming its
	// unit. EpochNS is the worker tracer's wall-clock epoch
	// (span.Tracer.EpochWallNS); the coordinator uses it to shift the
	// subtree onto its own timeline before grafting it under the owning
	// job's remote-evaluate span.
	Spans   []spanData `json:"spans,omitempty"`
	EpochNS int64      `json:"epoch_ns,omitempty"`
}

type completeResponse struct {
	// Accepted counts results delivered to the job service; Duplicates
	// counts pushes for points already completed elsewhere (idempotent
	// no-ops); Requeued counts undecodable results returned to the
	// queue.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	Requeued   int `json:"requeued"`
}

// errorResponse is the JSON error body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// jobWire is the journaled form of a service.JobRequest: the workload
// list, mode, and job deadline, plus the enumeration and
// result-determining fields of sweep.Options — everything Submit reads
// (the runtime plumbing fields are owned by the manager on both the
// original and the rehydrated submission). Round-tripping a request
// through jobWire preserves its option fingerprint, so a rehydrated
// job's keys equal the original's and its stored points land as store
// hits.
type jobWire struct {
	Workloads []string `json:"workloads"`
	Mode      string   `json:"mode,omitempty"`
	TimeoutNS int64    `json:"timeout_ns,omitempty"`

	TechScale       float64 `json:"tech_scale,omitempty"`
	TechAddrBits    int     `json:"tech_addr_bits,omitempty"`
	OffChipNS       float64 `json:"offchip_ns,omitempty"`
	L2Assoc         int     `json:"l2_assoc,omitempty"`
	L2Policy        int     `json:"l2_policy,omitempty"`
	Policy          int     `json:"policy,omitempty"`
	DualPorted      bool    `json:"dual_ported,omitempty"`
	Refs            uint64  `json:"refs,omitempty"`
	L1Sizes         []int64 `json:"l1_sizes,omitempty"`
	L2Sizes         []int64 `json:"l2_sizes,omitempty"`
	SingleLevelOnly bool    `json:"single_level_only,omitempty"`
	TwoLevelOnly    bool    `json:"two_level_only,omitempty"`
	LineSize        int     `json:"line_size,omitempty"`
	CfgTimeoutNS    int64   `json:"cfg_timeout_ns,omitempty"`
	Retries         int     `json:"retries,omitempty"`
}

// jobToWire captures the journaled form of a job request.
func jobToWire(req service.JobRequest) jobWire {
	o := req.Options
	return jobWire{
		Workloads:       append([]string(nil), req.Workloads...),
		Mode:            req.Mode,
		TimeoutNS:       int64(req.Timeout),
		TechScale:       o.Tech.Scale,
		TechAddrBits:    o.Tech.AddrBits,
		OffChipNS:       o.OffChipNS,
		L2Assoc:         o.L2Assoc,
		L2Policy:        int(o.L2Policy),
		Policy:          int(o.Policy),
		DualPorted:      o.DualPorted,
		Refs:            o.Refs,
		L1Sizes:         append([]int64(nil), o.L1Sizes...),
		L2Sizes:         append([]int64(nil), o.L2Sizes...),
		SingleLevelOnly: o.SingleLevelOnly,
		TwoLevelOnly:    o.TwoLevelOnly,
		LineSize:        o.LineSize,
		CfgTimeoutNS:    int64(o.Timeout),
		Retries:         o.Retries,
	}
}

// toRequest rebuilds the job request for rehydration.
func (jw jobWire) toRequest() service.JobRequest {
	return service.JobRequest{
		Workloads: append([]string(nil), jw.Workloads...),
		Mode:      jw.Mode,
		Timeout:   time.Duration(jw.TimeoutNS),
		Options: sweep.Options{
			Tech:            timing.Tech{Scale: jw.TechScale, AddrBits: jw.TechAddrBits},
			OffChipNS:       jw.OffChipNS,
			L2Assoc:         jw.L2Assoc,
			L2Policy:        cache.ReplacementPolicy(jw.L2Policy),
			Policy:          core.Policy(jw.Policy),
			DualPorted:      jw.DualPorted,
			Refs:            jw.Refs,
			L1Sizes:         append([]int64(nil), jw.L1Sizes...),
			L2Sizes:         append([]int64(nil), jw.L2Sizes...),
			SingleLevelOnly: jw.SingleLevelOnly,
			TwoLevelOnly:    jw.TwoLevelOnly,
			LineSize:        jw.LineSize,
			Timeout:         time.Duration(jw.CfgTimeoutNS),
			Retries:         jw.Retries,
		},
	}
}

func errKeyMismatch(want, got string) error {
	return fmt.Errorf("cluster: unit key %q does not match recomputed key %q", want, got)
}
