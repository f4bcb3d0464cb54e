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
// per demand reference (a Fenwick tree over access timestamps, O(log n)
// per reference), because a fully-associative LRU cache of capacity C
// hits exactly the references with stack distance ≤ C.
//
// The analyzer is a pure shadow: it observes the demand stream through
// cache.AccessObserver and never touches primary simulator state, so
// attaching it cannot perturb results, statistics, or stored points.
package analyze

import (
	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
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
			hist:     reg.Histogram("analyze_"+name+"_reuse_distance_lines", reuseBounds()),
		}
		l.dist.last = make(map[cache.LineAddr]int32)
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

// StackDist is the exported face of the Fenwick LRU stack-distance
// tracker, for consumers that need exact reuse distances outside a
// shadow-attached analyzer — internal/model's one-pass reuse-distance
// profiler collects per-stream histograms with it. The zero value is
// not usable; build with NewStackDist.
type StackDist struct{ d distTracker }

// NewStackDist returns an empty tracker.
func NewStackDist() *StackDist {
	s := &StackDist{}
	s.d.last = make(map[cache.LineAddr]int32)
	return s
}

// Access records one reference to line l and returns its 1-based LRU
// stack distance (1 = immediate re-reference; d ≤ C ⇔ a C-line
// fully-associative LRU cache hits), or cold=true for a first touch.
func (s *StackDist) Access(l cache.LineAddr) (dist uint64, cold bool) {
	dist, _, cold = s.d.access(l)
	return dist, cold
}

// AccessTimed is Access plus the reuse distance in time: the number of
// run-collapsed accesses since the line's previous reference (1 for an
// immediate repeat; consecutive same-line references collapse into one
// tracked access, so the unit is "distinct-line episodes", the events
// that can miss and evict). Probabilistic replacement models need time
// distances — eviction pressure under random replacement accumulates
// per (potentially missing) access, not per distinct line.
func (s *StackDist) AccessTimed(l cache.LineAddr) (dist, timeDist uint64, cold bool) {
	return s.d.access(l)
}

// Distinct reports the number of distinct lines seen so far (the
// cumulative cold count).
func (s *StackDist) Distinct() int { return len(s.d.last) }

// level is the shadow analysis for one cache level. It implements
// cache.AccessObserver.
type level struct {
	name     string
	capLines uint64
	dist     distTracker
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
	d, _, cold := s.dist.access(l)
	if cold {
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
	case cold:
		s.compulsory++
	case d <= s.capLines:
		s.conflict++
	default:
		s.capacity++
	}
}

// distTracker computes exact LRU stack distances over a growing access
// stream: a Fenwick tree over access indices plus a line → latest-index
// map.
type distTracker struct {
	last map[cache.LineAddr]int32 // line -> 1-based index of its latest access
	fen  Fenwick
	// lastLine/haveLast shortcut consecutive same-line references:
	// repeats of the most recent line have distance 1 by definition and
	// change no other line's future distance (stack distance counts
	// *distinct* intervening lines), so they can skip the tree entirely.
	lastLine cache.LineAddr
	haveLast bool
}

// access records one reference to line l and returns its 1-based LRU
// stack distance (1 = immediate re-reference; d ≤ C ⇔ a C-line
// fully-associative LRU cache hits) together with its reuse distance
// in collapsed accesses, or cold=true for a first touch.
func (d *distTracker) access(l cache.LineAddr) (dist, timeDist uint64, cold bool) {
	if d.haveLast && l == d.lastLine {
		// Immediate re-reference: distance 1, and skipping the tree
		// update is exact — a repeat adds no distinct line, so every
		// other line's future distance is unchanged, and l's own next
		// distance counts distinct lines since *any* access of this run.
		return 1, 1, false
	}
	d.lastLine, d.haveLast = l, true
	prev, seen := d.last[l]
	if seen {
		dist = uint64(d.fen.CountSince(prev)) + 1
		timeDist = uint64(d.fen.N() - prev + 1)
	} else {
		cold = true
	}
	d.fen.Append()
	if seen {
		d.fen.Clear(prev)
	}
	d.last[l] = d.fen.N()
	return dist, timeDist, cold
}

// Fenwick is the LRU-stack tree at the core of every exact
// stack-distance computation here: a binary indexed tree over access
// indices tracking, for each distinct line, its most recent access, so
// the number of distinct lines touched after access i is one range sum
// — O(log n) per reference instead of the O(n) of a move-to-front
// list. The zero value is a growing tree storing a 1 at each
// most-recent access. NewFenwick with a capacity preallocates and
// inverts the representation: the tree stores a 1 at each CLEARED
// position instead, so Append is a bare counter increment (a fresh
// position is implicitly set) and each access costs one traversal for
// CountSince plus one for Clear. Consumers that know their stream
// length up front (the reuse-distance profiler in internal/model) get
// roughly half the per-access cost of the growing form.
type Fenwick struct {
	bit   []int32
	n     int32
	ones  int32 // growing mode: set positions == full-range sum
	holes int32 // fixed mode: cleared positions recorded in the tree
	limit int32 // preallocated capacity; 0 = grow on demand
}

// NewFenwick returns a tree preallocated for capacity accesses
// (capacity ≤ 0 yields a growing tree).
func NewFenwick(capacity int) *Fenwick {
	f := &Fenwick{}
	if capacity > 0 {
		f.bit = make([]int32, capacity+1)
		f.limit = int32(capacity)
	}
	return f
}

// N reports the number of accesses recorded (the 1-based index of the
// latest).
func (f *Fenwick) N() int32 { return f.n }

// Append records the next access as the most recent occurrence of its
// line.
func (f *Fenwick) Append() {
	f.n++
	f.ones++
	i := f.n
	if f.limit > 0 {
		// Holes representation: the new position is set by definition
		// of "not yet cleared" — no tree update at all.
		if i > f.limit {
			f.growFixed()
		}
		return
	}
	if int(i) >= len(f.bit) {
		nb := make([]int32, max(int(i)+1, 2*len(f.bit)))
		copy(nb, f.bit)
		f.bit = nb
	}
	// Derive the new node's range sum from the current tree, which
	// keeps the growing tree exact without touching other nodes.
	f.bit[i] = 1 + f.query(i-1) - f.query(i-i&-i)
}

// Clear marks access i as no longer the most recent occurrence of its
// line (call it with the line's previous index after Append).
func (f *Fenwick) Clear(i int32) {
	f.ones--
	if f.limit > 0 {
		f.holes++
		f.add(i, 1)
		return
	}
	f.add(i, -1)
}

// CountSince reports the number of distinct lines whose most recent
// access came strictly after access i. Only the prefix at i costs a
// traversal: the full-range total is the tracked ones (or holes)
// count.
func (f *Fenwick) CountSince(i int32) int32 {
	if f.limit > 0 {
		// Set positions in (i, n] = all positions there minus the holes
		// there; holes beyond i = total holes minus holes ≤ i.
		return (f.n - i) - (f.holes - f.query(i))
	}
	return f.ones - f.query(i)
}

// query sums tree positions 1..i.
func (f *Fenwick) query(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += f.bit[i]
	}
	return s
}

// add applies delta at position i.
func (f *Fenwick) add(i, delta int32) {
	lim := f.limit
	if lim == 0 {
		lim = f.n
	}
	for ; i <= lim; i += i & -i {
		f.bit[i] += delta
	}
}

// growFixed doubles a preallocated tree that overflowed its capacity,
// rebuilding node range sums for the new geometry.
func (f *Fenwick) growFixed() {
	old := *f
	f.limit = 2 * f.limit
	f.bit = make([]int32, f.limit+1)
	for i := int32(1); i < old.n; i++ {
		if v := old.query(i) - old.query(i-1); v != 0 {
			f.add(i, v)
		}
	}
}
