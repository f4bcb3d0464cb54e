package trace

import "math/bits"

// This file is the module's one LRU stack-distance kernel. A fully
// associative LRU cache of C lines hits exactly the references at stack
// distance ≤ C, so every consumer of stack distance — the generator's
// move-to-front stacks, Analyze, internal/analyze's 3C classifier and
// internal/model's reuse-distance profiler — runs on the bit-packed
// rank/select set and the StackTracker below.

// fenwick is a rank/select structure over a set of positions 1..size():
// a bit vector with one bit per position, plus a Fenwick tree over the
// popcounts of its 64-bit words. Both users hold only 0 or 1 per
// position (occupied slots, cleared access indices), so the tree needs
// one node per word rather than per position: 64 times smaller, small
// enough to stay in L1d for the generator's stacks. Set, unset, prefix
// count and select-by-rank each cost O(log(n/64)) tree steps plus one
// word operation.
type fenwick struct {
	words []uint64 // position i is bit i&63 of words[i>>6]; position 0 stays clear
	tree  []int32  // tree[j] (j ≥ 1): Fenwick node over the popcounts of words[0..j-1]
}

// newFenwick returns an empty set over at least positions 1..n.
func newFenwick(n int) fenwick {
	w := n>>6 + 1
	return fenwick{words: make([]uint64, w), tree: make([]int32, w+1)}
}

// size returns the highest position the set can hold.
func (f fenwick) size() int { return len(f.words)<<6 - 1 }

// set adds position i, which must be absent.
func (f fenwick) set(i int) {
	f.words[i>>6] |= 1 << (i & 63)
	for j := i>>6 + 1; j < len(f.tree); j += j & -j {
		f.tree[j]++
	}
}

// unset removes position i, which must be present.
func (f fenwick) unset(i int) {
	f.words[i>>6] &^= 1 << (i & 63)
	for j := i>>6 + 1; j < len(f.tree); j += j & -j {
		f.tree[j]--
	}
}

// sum returns the number of positions present in 1..i.
func (f fenwick) sum(i int) int32 {
	w := i >> 6
	s := int32(bits.OnesCount64(f.words[w] & (2<<(i&63) - 1)))
	for ; w > 0; w -= w & -w {
		s += f.tree[w]
	}
	return s
}

// rank returns the k-th lowest position present (k from 1). k must be
// at least 1 and at most the number present.
func (f fenwick) rank(k int32) int {
	w := 0 // whole words below the answer
	for step := 1 << (bits.Len(uint(len(f.words))) - 1); step > 0; step >>= 1 {
		if next := w + step; next < len(f.tree) && f.tree[next] < k {
			w = next
			k -= f.tree[next]
		}
	}
	return w<<6 | selectBit(f.words[w], k)
}

// selectBit returns the index of x's k-th lowest set bit (k from 1):
// halving by popcount down to a byte, then clearing the bits below.
func selectBit(x uint64, k int32) int {
	at := 0
	if c := int32(bits.OnesCount32(uint32(x))); k > c {
		k -= c
		x >>= 32
		at += 32
	}
	if c := int32(bits.OnesCount16(uint16(x))); k > c {
		k -= c
		x >>= 16
		at += 16
	}
	if c := int32(bits.OnesCount8(uint8(x))); k > c {
		k -= c
		x >>= 8
		at += 8
	}
	for ; k > 1; k-- {
		x &= x - 1
	}
	return at + bits.TrailingZeros64(x)
}

// fill makes lo..hi the positions present (none when hi < lo),
// writing whole words and rebuilding the tree in one linear pass
// instead of hi-lo+1 point updates.
func (f fenwick) fill(lo, hi int) {
	clear(f.words)
	if lo <= hi {
		for w := lo >> 6; w <= hi>>6; w++ {
			f.words[w] = ^uint64(0)
		}
		f.words[lo>>6] &= ^uint64(0) << (lo & 63)
		f.words[hi>>6] &= ^uint64(0) >> (63 - hi&63)
	}
	f.build()
}

// gather copies src[i] for every position i present, in ascending
// order, into dst, scanning the words rather than selecting each rank.
func (f fenwick) gather(dst, src []uint64) {
	k := 0
	for w, word := range f.words {
		for ; word != 0; word &= word - 1 {
			dst[k] = src[w<<6|bits.TrailingZeros64(word)]
			k++
		}
	}
}

// build recomputes every tree node from the words: each node starts as
// its word's popcount and then passes its total to its parent, which
// follows it.
func (f fenwick) build() {
	for j := 1; j < len(f.tree); j++ {
		f.tree[j] = int32(bits.OnesCount64(f.words[j-1]))
	}
	for j := 1; j < len(f.tree); j++ {
		if p := j + j&-j; p < len(f.tree) {
			f.tree[p] += f.tree[j]
		}
	}
}

// grown returns a copy of f that can hold positions up to at least n
// (n ≥ f.size()).
func (f fenwick) grown(n int) fenwick {
	g := newFenwick(n)
	copy(g.words, f.words)
	g.build()
	return g
}

// StackTracker computes exact LRU stack distances over a reference
// stream in O(log n) per reference. It numbers the stream's accesses
// 1, 2, 3, … and keeps the set (a fenwick) of every access index that
// is no longer its line's latest: the distinct lines touched since
// a line's previous access are then the indices after it minus the holes
// among them. The caller keeps each line's latest index (a map, or
// internal/model's shared page table) and hands it to Access.
//
// An immediate repeat of the most recent line is not numbered: it has
// distance 1 and adds no distinct line, so it changes no other line's
// future distance. Reuse time is therefore counted in run-collapsed
// accesses (distinct-line episodes), the events that can miss and
// evict.
type StackTracker struct {
	holes   fenwick
	n       int32 // accesses numbered so far: the latest index
	cleared int32 // holes in the set
}

// NewStackTracker returns an empty tracker with room for capacity
// numbered accesses; it doubles when that fills.
func NewStackTracker(capacity int) *StackTracker {
	return &StackTracker{holes: newFenwick(capacity)}
}

// Access records one reference to a line whose previous access index is
// prev (0 for a first touch). It returns the 1-based stack distance
// (0 for a first touch), the reuse time (accesses since prev, 1 for an
// immediate repeat; 0 for a first touch) and the index to keep for the
// line until its next reference.
func (t *StackTracker) Access(prev int32) (dist, reuse uint64, idx int32) {
	if prev == t.n && prev != 0 {
		return 1, 1, prev
	}
	t.n++
	if int(t.n) > t.holes.size() {
		t.holes = t.holes.grown(2*t.holes.size() + 1)
	}
	if prev == 0 {
		return 0, 0, t.n
	}
	// Indices in (prev, n] less the holes there: prev is still the
	// line's latest, so the count includes the line itself.
	dist = uint64(t.n - prev - (t.cleared - t.holes.sum(int(prev))))
	t.holes.set(int(prev))
	t.cleared++
	return dist, uint64(t.n - prev), t.n
}

// N reports the accesses numbered so far: the references that were not
// immediate repeats.
func (t *StackTracker) N() int32 { return t.n }
