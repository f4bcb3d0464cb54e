package sweep

// This file defines the canonical identity of evaluated work: Key names
// one evaluated point, and PointStore memoizes points under it. A
// resumable RunContext and internal/service's result store both key off
// Key, so their notions of "the same evaluation" cannot drift and a
// store written by one serves hits to the other.

import (
	"fmt"

	"twolevel/internal/core"
)

// Key identifies one evaluated point: the workload name, the
// result-determining subset of the options, and the full configuration
// geometry. Two evaluations with equal keys produce identical points,
// so Key is safe to use as a memoization key (it is how
// PointStore implementations address completed work).
//
// Unlike Options.Fingerprint, Key deliberately excludes the
// enumeration-only option fields (L1Sizes, L2Sizes, SingleLevelOnly,
// TwoLevelOnly) and the fields Configs materializes into each
// core.Config (L2Assoc, L2Policy, Policy, LineSize): those either do not
// affect a single point's result or are already captured by the
// configuration itself.
// Two sweeps that enumerate different size lists therefore share keys
// for the configurations they have in common — the property that lets
// an overlapping job reuse another job's cached points.
func Key(workload string, cfg core.Config, opt Options) string {
	o := opt.withDefaults()
	return fmt.Sprintf("%s|tech=%g/%d;off=%g;dual=%t;refs=%d|%s",
		workload, o.Tech.Scale, o.Tech.AddrBits, o.OffChipNS, o.DualPorted, o.Refs,
		configKey(cfg))
}

// PointStore memoizes completed points by Key. Options.Store makes a
// RunContext sweep resumable through one; internal/service's MemStore,
// DiskStore and HotStore implement it. Implementations must be safe for
// concurrent use, and Put must be idempotent for a key (evaluations are
// deterministic, so re-putting a key stores the same value).
type PointStore interface {
	// Get returns the stored point for key, if any.
	Get(key string) (Point, bool)
	// Put stores a completed point under key.
	Put(key string, p Point)
}

// configKey renders the complete simulatable identity of a hierarchy
// configuration — unlike Label's "x:y" display form, it pins line
// sizes, associativities, replacement policies, the two-level
// discipline, and the write mode, so distinct geometries can never
// collide under one key.
func configKey(cfg core.Config) string {
	k := fmt.Sprintf("l1i=%d/%d/%d/%s;l1d=%d/%d/%d/%s;wr=%d",
		cfg.L1I.Size, cfg.L1I.LineSize, cfg.L1I.Assoc, cfg.L1I.Policy,
		cfg.L1D.Size, cfg.L1D.LineSize, cfg.L1D.Assoc, cfg.L1D.Policy,
		int(cfg.Writes))
	if cfg.TwoLevel() {
		k += fmt.Sprintf(";l2=%d/%d/%d/%s;pol=%s",
			cfg.L2.Size, cfg.L2.LineSize, cfg.L2.Assoc, cfg.L2.Policy, cfg.Policy)
	}
	return k
}
