package trace

import (
	"math"
	"math/bits"
	"sync"
)

// mtfStack is a move-to-front list of line addresses used to realize an
// LRU stack-distance reuse model: referencing depth d reproduces an LRU
// stack distance of exactly d, so a fully-associative LRU cache of
// capacity C lines misses exactly the references drawn from depth > C
// (plus compulsory references).
//
// The representation is an order-statistics list rather than a dense
// slice: lines live in slots of a fixed arena, the front of the stack
// occupies the lowest occupied slot, and the shared rank/select set
// (lrustack.go) over slot occupancy answers "which slot holds depth d"
// by rank in O(log n). A move-to-front (or a push of a new line) claims
// the next slot below the current front, so both cost O(log n) instead
// of the O(depth) memmove of a dense slice — the difference between
// microseconds and milliseconds per million references for footprints
// of 10^4..10^5 lines. When the arena's headroom below the front is
// exhausted the stack compacts into a fresh arena (amortized O(1) per
// operation).
type mtfStack struct {
	lines []uint64 // 1-based: slot -> line (stale once a slot is vacated)
	occ   fenwick  // slot occupancy
	n     int      // occupied slots == stack depth
	front int      // lowest occupied slot; 0 = empty
}

// arena sizes the slot arena for a stack of n lines. Headroom trades
// compaction frequency against arena size: with 2n slots of headroom a
// compaction, a linear copy of the n lines, comes every 2n
// move-to-fronts. The occupancy set costs one bit plus 1/64 of a 4-byte
// tree node per slot against a line's 8 bytes, so lines are almost all
// of an arena's bytes.
func arenaCap(n int) int { return n + max(2*n, 1<<16) }

// arenas recycles slot arenas: a stack that compacts, and a generator
// that has produced its last reference, hand theirs back. Every sweep
// and service job builds fresh generators, and without the pool each
// one is a megabyte or two of garbage the collector pays for.
var arenas sync.Pool // of *mtfStack, holding only lines and occ

// initArena gives the stack an arena of capacity slots whose top n
// slots are occupied; the caller fills their lines, depth 1 first.
func (s *mtfStack) initArena(capacity, n int) {
	// A pooled arena's occupancy set was sized with its lines, so one
	// with room for the lines has room for the words too.
	if a, _ := arenas.Get().(*mtfStack); a != nil && cap(a.lines) > capacity {
		words := capacity>>6 + 1
		s.lines = a.lines[:capacity+1]
		s.occ = fenwick{words: a.occ.words[:words], tree: a.occ.tree[:words+1]}
	} else {
		s.lines = make([]uint64, capacity+1)
		s.occ = newFenwick(capacity)
	}
	s.n = n
	s.front = capacity + 1 - n // capacity+1 when empty: the next claim takes slot capacity
	s.occ.fill(s.front, capacity)
}

// release hands the stack's arena to the pool; the stack is unusable
// afterwards.
func (s *mtfStack) release() {
	if s.lines != nil {
		arenas.Put(&mtfStack{lines: s.lines, occ: s.occ})
		s.lines, s.occ = nil, fenwick{}
	}
}

// claimFront returns a fresh slot strictly below the current front,
// compacting into a new arena when the headroom is gone.
func (s *mtfStack) claimFront() int {
	if s.front <= 1 {
		s.compact()
	}
	s.front--
	return s.front
}

// compact rebuilds the arena with the occupied slots packed at the top
// in depth order, restoring full headroom below the front. Occupied
// slots in ascending order are the stack in depth order, so one gather
// copies them.
func (s *mtfStack) compact() {
	old := *s
	s.initArena(arenaCap(old.n), old.n)
	old.occ.gather(s.lines[s.front:], old.lines)
	old.release()
}

// push adds a brand-new line at the front (a compulsory reference).
func (s *mtfStack) push(line uint64) {
	if s.lines == nil {
		s.initArena(arenaCap(1), 0)
	}
	f := s.claimFront()
	s.lines[f] = line
	s.occ.set(f)
	s.n++
}

// prewarm fills the stack with n lines produced by gen(i), most recent
// first, so the reuse model starts in steady state rather than growing a
// footprint from nothing (the paper's traces are tens of millions to
// billions of references of warmed-up execution).
func (s *mtfStack) prewarm(n int, gen func(int) uint64) {
	s.initArena(arenaCap(n), n)
	top := s.lines[s.front:]
	for i := range top {
		top[i] = gen(n - 1 - i) // depth i+1 holds gen(n-1-i): most recent first
	}
}

// refDepth references the line at 1-based depth d, moving it to the
// front, and returns its address. d must be in [1, len].
func (s *mtfStack) refDepth(d int) uint64 {
	if d == 1 {
		return s.lines[s.front] // already at the front: nothing moves
	}
	if s.front <= 1 {
		// Compact before touching the set: compaction scans it and
		// must see every line still in place.
		s.compact()
	}
	slot, ok := s.scanRank(d)
	if !ok {
		slot = s.occ.rank(int32(d))
	}
	line := s.lines[slot]
	s.occ.unset(slot)
	f := s.claimFront()
	s.lines[f] = line
	s.occ.set(f)
	return line
}

// frontScanWords is how many occupancy words from the front's scanRank
// reads. A move-to-front packs the slots just below the front, so the
// shallow depths most draws pick lie within a word or two of it.
const frontScanWords = 4

// scanRank returns the slot of depth d (the d-th occupied slot) by a
// popcount scan of the frontScanWords words from the front's, or false
// when d lies deeper. No occupied slot lies below the front, so counting
// from the front's word counts every occupied slot before the answer.
func (s *mtfStack) scanRank(d int) (int, bool) {
	words := s.occ.words
	w := s.front >> 6
	k := int32(d)
	for end := min(w+frontScanWords, len(words)); w < end; w++ {
		c := int32(bits.OnesCount64(words[w]))
		if k <= c {
			return w<<6 | selectBit(words[w], k), true
		}
		k -= c
	}
	return 0, false
}

// depth returns the current stack depth.
func (s *mtfStack) depth() int { return s.n }

// zipfSampler draws 1-based stack depths from a truncated Zipf
// distribution P(d) ∝ 1/d^theta over [1, n] by inverse-CDF lookup.
// theta controls how quickly miss rate falls with cache capacity: larger
// theta concentrates reuse near the top of the stack (miss rate falls
// fast and then flattens), smaller theta spreads reuse across the whole
// footprint (miss rate falls slowly — the tomcatv shape).
type zipfSampler struct {
	cdf []float64 // cdf[i] = P(depth <= i+1)
	// quant[b] pre-answers sample(b/len) so a draw only binary-searches
	// the narrow band [quant[b], quant[b+1]] its quantile pins down —
	// one or two probes in practice instead of log2(n).
	quant []int32
}

// quantBuckets sizes the quantile index; a power of two so the bucket
// of u is one multiply and truncation.
const quantBuckets = 4096

// newZipfSampler builds a sampler over depths [1, n].
func newZipfSampler(n int, theta float64) *zipfSampler {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for d := 1; d <= n; d++ {
		sum += math.Pow(float64(d), -theta)
		cdf[d-1] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	z := &zipfSampler{cdf: cdf, quant: make([]int32, quantBuckets+1)}
	for b, i := 0, 0; b <= quantBuckets; b++ {
		u := float64(b) / quantBuckets
		for i < n-1 && cdf[i] < u {
			i++
		}
		z.quant[b] = int32(i)
	}
	return z
}

// zipfMemo shares samplers between generators: a sampler depends only
// on (n, theta) and is read-only once built, and building one costs a
// math.Pow per depth, about half of NewGenerator. The memo keeps at most
// zipfMemoEntries samplers of zipfMemoDepths depths in all, so odd
// parameters cannot grow it without bound; past either limit a sampler
// is built unshared.
var zipfMemo struct {
	sync.Mutex
	m      map[zipfKey]*zipfSampler
	depths int
}

type zipfKey struct {
	n     int
	theta uint64 // math.Float64bits, so a NaN key still matches itself
}

const (
	zipfMemoEntries = 64
	zipfMemoDepths  = 1 << 22 // 32 MB of CDF
)

// sharedZipfSampler returns the memoised sampler over [1, n] for theta,
// building it on first use.
func sharedZipfSampler(n int, theta float64) *zipfSampler {
	k := zipfKey{n, math.Float64bits(theta)}
	zipfMemo.Lock()
	z := zipfMemo.m[k]
	zipfMemo.Unlock()
	if z != nil {
		return z
	}
	// Build outside the lock so generators of different shapes do not
	// wait on each other; a racing builder of the same shape wins.
	z = newZipfSampler(n, theta)
	zipfMemo.Lock()
	defer zipfMemo.Unlock()
	if prev := zipfMemo.m[k]; prev != nil {
		return prev
	}
	if len(zipfMemo.m) < zipfMemoEntries && zipfMemo.depths+z.n() <= zipfMemoDepths {
		if zipfMemo.m == nil {
			zipfMemo.m = make(map[zipfKey]*zipfSampler)
		}
		zipfMemo.m[k] = z
		zipfMemo.depths += z.n()
	}
	return z
}

// n returns the sampler's maximum depth.
func (z *zipfSampler) n() int { return len(z.cdf) }

// sample maps a uniform u in [0,1) to a depth in [1, n]: the lowest i
// with cdf[i] ≥ u, found within the bracket the quantile index pins.
func (z *zipfSampler) sample(u float64) int {
	b := int(u * quantBuckets)
	lo, hi := int(z.quant[b]), int(z.quant[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
