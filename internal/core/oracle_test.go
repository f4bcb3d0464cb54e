package core

import (
	"twolevel/internal/cache"
	"twolevel/internal/trace"
)

// This file is a deliberately naive reference simulator for the
// conventional write-back hierarchy, kept independent of internal/cache
// and of the L1 pass: per-set slices of blocks, set index and tag by
// division and remainder, and victims found by scanning stamps. It is
// slow and obvious so that it can judge the fast paths.

// refBlock is one way of a reference cache.
type refBlock struct {
	tag   uint64
	valid bool
	dirty bool
	stamp uint64 // last use under LRU, insertion under FIFO
}

// refCache is one reference cache array.
type refCache struct {
	sets     [][]refBlock
	policy   cache.ReplacementPolicy
	clock    uint64
	lfsr     uint32
	hits     uint64
	misses   uint64
	evicted  uint64
	dirtyOut uint64
}

func newRefCache(c cache.Config) *refCache {
	nsets := int(c.Size) / c.LineSize / c.Assoc
	sets := make([][]refBlock, nsets)
	for i := range sets {
		sets[i] = make([]refBlock, c.Assoc)
	}
	return &refCache{sets: sets, policy: c.Policy, lfsr: 0xACE1}
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

// fill places line, which is not resident, in the first empty way of its
// set or over the policy's victim, and reports the line it displaced.
func (c *refCache) fill(line uint64, dirty bool) (victim uint64, valid, victimDirty bool) {
	n := uint64(len(c.sets))
	set, tag := c.sets[line%n], line/n
	way := -1
	for i := range set {
		if !set[i].valid {
			way = i
			break
		}
	}
	if way < 0 {
		way = c.victimWay(set)
		victim, valid, victimDirty = set[way].tag*n+line%n, true, set[way].dirty
		c.evicted++
		if victimDirty {
			c.dirtyOut++
		}
	}
	c.clock++
	set[way] = refBlock{tag: tag, valid: true, dirty: dirty, stamp: c.clock}
	return victim, valid, victimDirty
}

// victimWay picks the way to replace in a full set.
func (c *refCache) victimWay(set []refBlock) int {
	if len(set) == 1 {
		return 0
	}
	if c.policy == cache.LRU || c.policy == cache.FIFO {
		oldest := 0
		for i := range set {
			if set[i].stamp < set[oldest].stamp {
				oldest = i
			}
		}
		return oldest
	}
	// Pseudo-random: one step of a 16-bit Fibonacci LFSR with taps 16,
	// 14, 13 and 11, seeded 0xACE1, then the state modulo the ways.
	bit := (c.lfsr ^ c.lfsr>>2 ^ c.lfsr>>3 ^ c.lfsr>>5) & 1
	c.lfsr = c.lfsr>>1 | bit<<15
	return int(c.lfsr % uint32(len(set)))
}

// refHierarchy is the reference conventional write-back, write-allocate
// hierarchy: split L1s and an optional L2.
type refHierarchy struct {
	l1i, l1d, l2 *refCache
	lineSize     uint64
	st           Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{
		l1i:      newRefCache(cfg.L1I),
		l1d:      newRefCache(cfg.L1D),
		lineSize: uint64(cfg.L1I.LineSize),
	}
	if cfg.TwoLevel() {
		h.l2 = newRefCache(cfg.L2)
	}
	return h
}

// refRun simulates refs through cfg's conventional write-back hierarchy
// on the reference simulator.
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
			b.dirty = true
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
	// The L1 allocates first; its dirty victim then writes back to the
	// L2's copy, or off-chip when the L2 holds none.
	victim, valid, dirty := l1.fill(line, write)
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
