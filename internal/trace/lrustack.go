package trace

import "math/bits"

// This file is the module's one LRU stack-distance kernel. A fully
// associative LRU cache of C lines hits exactly the references at stack
// distance ≤ C, so every consumer of stack distance — the generator's
// move-to-front stacks, Analyze, internal/analyze's 3C classifier and
// internal/model's reuse-distance profiler — runs on the Fenwick tree
// and the StackTracker below.

// fenwick is a binary indexed tree of int32 counts over positions
// 1..len-1 (index 0 is unused): add, prefix sum and select-by-rank each
// cost O(log n).
type fenwick []int32

// newFenwick returns a zeroed tree over positions 1..n.
func newFenwick(n int) fenwick { return make(fenwick, n+1) }

// add applies delta at position i.
func (f fenwick) add(i int, delta int32) {
	for ; i < len(f); i += i & -i {
		f[i] += delta
	}
}

// sum returns the total over positions 1..i.
func (f fenwick) sum(i int) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

// rank returns the lowest position whose prefix sum reaches k. Counts
// must be non-negative and k at least 1.
func (f fenwick) rank(k int32) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(f))) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(f) && f[next] < k {
			pos = next
			k -= f[next]
		}
	}
	return pos + 1
}

// grown returns a copy of f over positions 1..n (n ≥ len(f)-1). The
// nodes of f keep their values, since a node's range does not depend on
// the tree's length; each new node is the sum of its children, all of
// which precede it.
func (f fenwick) grown(n int) fenwick {
	g := newFenwick(n)
	copy(g, f)
	for i := 1; i < len(g); i++ {
		if p := i + i&-i; p >= len(f) && p < len(g) {
			g[p] += g[i]
		}
	}
	return g
}

// StackTracker computes exact LRU stack distances over a reference
// stream in O(log n) per reference. It numbers the stream's accesses
// 1, 2, 3, … and keeps a Fenwick tree with a 1 at every access index
// that is no longer its line's latest: the distinct lines touched since
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
	cleared int32 // holes in the tree
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
	if int(t.n) >= len(t.holes) {
		t.holes = t.holes.grown(2 * len(t.holes))
	}
	if prev == 0 {
		return 0, 0, t.n
	}
	// Indices in (prev, n] less the holes there: prev is still the
	// line's latest, so the count includes the line itself.
	dist = uint64(t.n - prev - (t.cleared - t.holes.sum(int(prev))))
	t.holes.add(int(prev), 1)
	t.cleared++
	return dist, uint64(t.n - prev), t.n
}

// N reports the accesses numbered so far: the references that were not
// immediate repeats.
func (t *StackTracker) N() int32 { return t.n }
