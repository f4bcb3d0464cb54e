package core

import (
	"twolevel/internal/cache"
	"twolevel/internal/trace"
)

// This file is a deliberately naive reference simulator for the
// write-back hierarchy under the conventional and exclusive policies,
// kept independent of internal/cache and of the L1 pass: per-set slices
// of blocks, set index and tag by division and remainder, and victims
// found by scanning stamps (LRU) or by a per-set pointer (FIFO). It is
// slow and obvious so that it can judge the fast paths.

// refBlock is one way of a reference cache.
type refBlock struct {
	tag   uint64
	valid bool
	dirty bool
	// upDirty marks an L1 line that is dirty only because it came up
	// dirty from the L2 (an exclusive move-up) and was not written since.
	upDirty bool
	stamp   uint64 // last use under LRU
}

// refCache is one reference cache array.
type refCache struct {
	sets     [][]refBlock
	next     []int // per set, the next way FIFO replaces
	policy   cache.ReplacementPolicy
	clock    uint64
	lfsr     uint32
	hits     uint64
	misses   uint64
	evicted  uint64
	dirtyOut uint64
	// upDirtyOut counts evicted lines that were dirty only because they
	// came up dirty from the L2.
	upDirtyOut uint64
}

func newRefCache(c cache.Config) *refCache {
	nsets := int(c.Size) / c.LineSize / c.Assoc
	sets := make([][]refBlock, nsets)
	for i := range sets {
		sets[i] = make([]refBlock, c.Assoc)
	}
	return &refCache{sets: sets, next: make([]int, nsets), policy: c.Policy, lfsr: 0xACE1}
}

// find returns the block holding line, or nil.
func (c *refCache) find(line uint64) *refBlock {
	n := uint64(len(c.sets))
	set, tag := c.sets[line%n], line/n
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// use records a demand hit on b.
func (c *refCache) use(b *refBlock) {
	c.hits++
	c.touch(b)
}

// touch records a use of b for LRU.
func (c *refCache) touch(b *refBlock) {
	if c.policy == cache.LRU {
		c.clock++
		b.stamp = c.clock
	}
}

// probe is a demand reference that does not allocate on a miss.
func (c *refCache) probe(line uint64) bool {
	if b := c.find(line); b != nil {
		c.use(b)
		return true
	}
	c.misses++
	return false
}

// markDirty updates a resident copy of line, reporting whether there
// was one.
func (c *refCache) markDirty(line uint64) bool {
	if b := c.find(line); b != nil {
		b.dirty = true
		return true
	}
	return false
}

// take removes line, which is resident, reporting whether it was dirty.
func (c *refCache) take(line uint64) (dirty bool) {
	b := c.find(line)
	dirty = b.dirty
	*b = refBlock{}
	return dirty
}

// fill places line, which is not resident, in the first empty way of its
// set or over the policy's victim, and reports the line it displaced. A
// fill into an empty way points FIFO at the way after it, so once
// move-ups leave holes in a set FIFO order is the way order from there,
// not insertion order.
func (c *refCache) fill(line uint64, dirty bool) (victim uint64, valid, victimDirty bool) {
	n := uint64(len(c.sets))
	set, tag := c.sets[line%n], line/n
	way := -1
	for i := range set {
		if !set[i].valid {
			way = i
			c.next[line%n] = (i + 1) % len(set)
			break
		}
	}
	if way < 0 {
		way = c.victimWay(set, &c.next[line%n])
		victim, valid, victimDirty = set[way].tag*n+line%n, true, set[way].dirty
		c.evicted++
		if victimDirty {
			c.dirtyOut++
		}
		if set[way].upDirty {
			c.upDirtyOut++
		}
	}
	c.clock++
	set[way] = refBlock{tag: tag, valid: true, dirty: dirty, stamp: c.clock}
	return victim, valid, victimDirty
}

// victimWay picks the way to replace in a full set; next is the set's
// FIFO pointer.
func (c *refCache) victimWay(set []refBlock, next *int) int {
	if len(set) == 1 {
		return 0
	}
	switch c.policy {
	case cache.LRU:
		oldest := 0
		for i := range set {
			if set[i].stamp < set[oldest].stamp {
				oldest = i
			}
		}
		return oldest
	case cache.FIFO:
		w := *next
		*next = (w + 1) % len(set)
		return w
	}
	// Pseudo-random: one step of a 16-bit Fibonacci LFSR with taps 16,
	// 14, 13 and 11, seeded 0xACE1, then the state modulo the ways.
	bit := (c.lfsr ^ c.lfsr>>2 ^ c.lfsr>>3 ^ c.lfsr>>5) & 1
	c.lfsr = c.lfsr>>1 | bit<<15
	return int(c.lfsr % uint32(len(set)))
}

// refHierarchy is the reference write-back, write-allocate hierarchy:
// split L1s and an optional L2, conventional or exclusive.
type refHierarchy struct {
	l1i, l1d, l2 *refCache
	exclusive    bool
	lineSize     uint64
	st           Stats
	// residentVictims counts exclusive victims the L2 already held.
	residentVictims uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{
		l1i:       newRefCache(cfg.L1I),
		l1d:       newRefCache(cfg.L1D),
		exclusive: cfg.TwoLevel() && cfg.Policy == Exclusive,
		lineSize:  uint64(cfg.L1I.LineSize),
	}
	if cfg.TwoLevel() {
		h.l2 = newRefCache(cfg.L2)
	}
	return h
}

// refRun simulates refs through cfg's write-back hierarchy on the
// reference simulator.
func refRun(cfg Config, refs []trace.Ref) (Stats, *refHierarchy) {
	h := newRefHierarchy(cfg)
	for _, r := range refs {
		h.access(r)
	}
	return h.st, h
}

func (h *refHierarchy) access(r trace.Ref) {
	l1, write := h.l1d, false
	switch r.Kind {
	case trace.Instr:
		h.st.InstrRefs++
		l1 = h.l1i
	case trace.Write:
		h.st.DataRefs++
		h.st.WriteRefs++
		write = true
	default:
		h.st.DataRefs++
	}
	line := r.Addr / h.lineSize
	if b := l1.find(line); b != nil {
		l1.use(b)
		if write {
			b.dirty, b.upDirty = true, false
		}
		if l1 == h.l1i {
			h.st.L1IHits++
		} else {
			h.st.L1DHits++
		}
		return
	}
	l1.misses++
	if l1 == h.l1i {
		h.st.L1IMisses++
	} else {
		h.st.L1DMisses++
	}
	// The L1 allocates first.
	victim, valid, dirty := l1.fill(line, write)
	if h.exclusive {
		h.exclusiveMiss(l1, line, victim, valid, dirty)
		return
	}
	// A dirty victim writes back to the L2's copy, or off-chip when the
	// L2 holds none.
	if valid && dirty {
		if h.l2 != nil && h.l2.markDirty(victim) {
			h.st.WriteBacksToL2++
		} else {
			h.st.WriteBacksOffChip++
		}
	}
	if h.l2 == nil {
		h.st.OffChipFetches++
		return
	}
	if h.l2.probe(line) {
		h.st.L2Hits++
		return
	}
	h.st.L2Misses++
	h.st.OffChipFetches++
	if _, valid, dirty := h.l2.fill(line, false); valid && dirty {
		h.st.WriteBacksOffChip++
	}
}

// exclusiveMiss finishes an L1 miss on line under the §8 exclusive
// policy, after the L1 has allocated it over (victim, valid, dirty). An
// L2 hit moves the line up with its dirty state; on an L2 miss the line
// comes from off-chip into the L1 alone. Every valid L1 victim, clean or
// dirty, then moves down into the L2.
func (h *refHierarchy) exclusiveMiss(l1 *refCache, line, victim uint64, valid, dirty bool) {
	hit := h.l2.probe(line)
	if hit {
		h.st.L2Hits++
		if h.l2.take(line) {
			b := l1.find(line)
			if !b.dirty {
				b.upDirty = true
			}
			b.dirty = true
		}
	} else {
		h.st.L2Misses++
		h.st.OffChipFetches++
	}
	if !valid {
		return
	}
	h.st.VictimsToL2++
	if dirty {
		h.st.WriteBacksToL2++
	}
	if sets := uint64(len(h.l2.sets)); hit && victim%sets == line%sets {
		h.st.Swaps++
	}
	// The victim may already be in the L2 when the other L1 put it there;
	// the transfer then refreshes that copy instead of filling.
	if b := h.l2.find(victim); b != nil {
		h.residentVictims++
		h.l2.touch(b)
		b.dirty = b.dirty || dirty
		return
	}
	if _, valid, dirty := h.l2.fill(victim, dirty); valid && dirty {
		h.st.WriteBacksOffChip++
	}
}
