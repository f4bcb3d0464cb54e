// Package analyze explains cache behaviour instead of merely counting
// it. Attached to a core.System as a shadow observer, it classifies
// every miss of every level with the classic 3C taxonomy —
//
//   - compulsory: the first demand reference to that line at that level
//   - capacity: a re-reference whose LRU stack distance exceeds the
//     level's size in lines, so even a fully-associative LRU cache of
//     the same capacity would have missed
//   - conflict: everything else — the line was recently enough used
//     that a fully-associative LRU cache of the same capacity would
//     have hit, so the miss is an artifact of limited associativity
//     (or, for an exclusive L2, of lines being promoted out)
//
// — and accumulates per-level reuse-distance histograms in log2
// buckets. Both derive from one exact LRU stack-distance computation
// per demand reference (trace.StackTracker, O(log n) per reference),
// because a fully-associative LRU cache of capacity C hits exactly the
// references with stack distance ≤ C.
//
// The analyzer is a pure shadow: it observes the demand stream through
// cache.AccessObserver and never touches primary simulator state, so
// attaching it cannot perturb results, statistics, or stored points.
package analyze

import (
	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// reuseBounds are the log2 histogram bounds for reuse distances in
// lines: 1, 2, 4, …, 2^23 (an 8M-line span; larger distances land in
// the overflow bucket).
func reuseBounds() []float64 { return obs.ExpBuckets(1, 2, 24) }

// Analyzer owns the per-level shadow state for one hierarchy. Build it
// with Attach; read results with Report. An Analyzer is not safe for
// concurrent use — it shares the single-threaded discipline of the
// simulator it shadows.
type Analyzer struct {
	cfg    core.Config
	reg    *obs.Registry
	levels []*level
}

// Attach builds an analyzer for sys and attaches it to every level. The
// registry receives the reuse-distance histograms (named
// "analyze_<level>_reuse_distance_lines"); pass nil to let the analyzer
// keep a private registry. Attach replaces any observers previously set
// on the system's caches.
func Attach(sys *core.System, reg *obs.Registry) *Analyzer {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a := &Analyzer{cfg: sys.Config(), reg: reg}
	mk := func(name string, c *cache.Cache) *level {
		l := &level{
			name:     name,
			capLines: uint64(c.Config().Lines()),
			dist:     trace.NewStackTracker(1 << 16),
			last:     make(map[cache.LineAddr]int32),
			hist:     reg.Histogram("analyze_"+name+"_reuse_distance_lines", reuseBounds()),
		}
		a.levels = append(a.levels, l)
		return l
	}
	l1i := mk("l1i", sys.L1I())
	l1d := mk("l1d", sys.L1D())
	if sys.L2() != nil {
		sys.ObserveLevels(l1i, l1d, mk("l2", sys.L2()))
	} else {
		sys.ObserveLevels(l1i, l1d, nil)
	}
	return a
}

// level is the shadow analysis for one cache level. It implements
// cache.AccessObserver.
type level struct {
	name     string
	capLines uint64
	dist     *trace.StackTracker
	last     map[cache.LineAddr]int32 // line -> latest access index in dist
	hist     *obs.Histogram

	accesses, hits, misses         uint64
	compulsory, capacity, conflict uint64
	coldRefs                       uint64 // first-touch references (no reuse distance)
}

// ObserveAccess folds one demand reference into the shadow state. Every
// miss lands in exactly one 3C class, so per level
// compulsory+capacity+conflict always equals the primary cache's miss
// count.
func (s *level) ObserveAccess(l cache.LineAddr, hit bool) {
	s.accesses++
	d, _, idx := s.dist.Access(s.last[l])
	s.last[l] = idx
	if d == 0 {
		s.coldRefs++
	} else {
		s.hist.Observe(float64(d))
	}
	if hit {
		s.hits++
		return
	}
	s.misses++
	switch {
	case d == 0:
		s.compulsory++
	case d <= s.capLines:
		s.conflict++
	default:
		s.capacity++
	}
}
