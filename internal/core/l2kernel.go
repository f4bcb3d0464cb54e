package core

import (
	"math/bits"

	"twolevel/internal/cache"
)

// l2Kernel is the L2 of one replay: a flat copy of the state a
// cache.Cache of the same configuration keeps, cut down to the
// operations a Follower's replay drives and to the counters it reports.
//
// Tags are set-major with a stride of max(ways, probeWidth) slots, so
// way w of set s is at slot s<<strideShift+w and a set narrower than a
// probe window has slots that never fill. Valid and dirty bits are the
// same-numbered bits of two bitsets, so a set of up to 64 ways finds its
// bits in one word. An empty slot holds a foreign tag, a line of
// another set, so in a cache of several sets no probe can match it and
// a narrow set is probed by tags alone. The replacement state is a
// cache.Replacement, the one home of the victim rules, so each policy
// (the LFSR, LRU stamps and FIFO pointers) replaces exactly the way a
// cache.Cache would.
//
// A kernel belongs to one replay; the chunks of the pass it replays are
// immutable once published.
type l2Kernel struct {
	tags         []cache.LineAddr
	valid, dirty []uint64 // bit i%64 of word i/64 is slot i's
	repl         cache.Replacement
	setMask      cache.LineAddr
	strideShift  uint
	ways         int
	wayMask      uint64 // a set's ways in its first word of valid bits
	evictions    uint64 // valid lines replaced
	dirtyOut     uint64 // dirty lines replaced
}

// probeWidth is how many slots match compares at once.
const (
	probeShift = 2
	probeWidth = 1 << probeShift
)

func newL2Kernel(c cache.Config) *l2Kernel {
	stride := max(c.Assoc, probeWidth)
	slots := c.Sets() * stride
	k := &l2Kernel{
		tags:        make([]cache.LineAddr, slots),
		valid:       make([]uint64, (slots+63)/64),
		dirty:       make([]uint64, (slots+63)/64),
		repl:        cache.NewReplacement(c),
		setMask:     cache.LineAddr(c.Sets() - 1),
		strideShift: uint(bits.TrailingZeros(uint(stride))),
		ways:        c.Assoc,
		wayMask:     ^uint64(0) >> (64 - min(c.Assoc, 64)),
	}
	for i := range k.tags {
		k.tags[i] = k.foreign(i)
	}
	return k
}

// narrow reports whether every set fits one probe window and empty
// slots hold foreign tags: at most probeWidth ways, and several sets. A
// narrow set is probed by one match, with no valid bits.
func (k *l2Kernel) narrow() bool { return k.ways <= probeWidth && k.setMask != 0 }

// foreign returns the tag empty slot i holds: a line of the set whose
// index differs from slot i's set in the lowest bit, so no line probing
// slot i's set can equal it. A cache of one set has no such line; its
// empty slots hold 0, told apart only by their valid bits.
func (k *l2Kernel) foreign(i int) cache.LineAddr {
	return cache.LineAddr(i>>k.strideShift^1) & k.setMask
}

// match returns the slots among the probeWidth at i that hold line l, a
// bit per slot. It compares every tag without a branch, and is small
// enough for the compiler to inline into the replay loops, which call
// it with the kernel's tags held in a local. In a narrow kernel its
// result is the way of l's set that holds l, if any.
func match(tags []cache.LineAddr, i int, l cache.LineAddr) (m uint64) {
	t := (*[probeWidth]cache.LineAddr)(tags[i:])
	if t[0] == l {
		m |= 1
	}
	if t[1] == l {
		m |= 2
	}
	if t[2] == l {
		m |= 4
	}
	if t[3] == l {
		m |= 8
	}
	return m
}

// find returns the slot of resident line l, or -1: match over each
// window of l's set in turn, keeping the slots whose valid bit is set.
// It is the general probe, for a set of any width in a cache of any
// number of sets.
func (k *l2Kernel) find(l cache.LineAddr) int {
	base := int(l&k.setMask) << k.strideShift
	for j := base; j < base+k.ways; j += probeWidth {
		if m := match(k.tags, j, l) & (k.valid[j>>6] >> (j & 63)); m != 0 {
			return j + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// touch records a use of slot i for the replacement policy.
func (k *l2Kernel) touch(i int) {
	k.repl.Touch(i>>k.strideShift, i&(1<<k.strideShift-1))
}

// markDirty sets slot i's dirty bit.
func (k *l2Kernel) markDirty(i int) { k.dirty[i>>6] |= 1 << (i & 63) }

// invalidate empties slot i and reports whether its line was dirty.
func (k *l2Kernel) invalidate(i int) (dirty bool) {
	dirty = k.dirty[i>>6]>>(i&63)&1 != 0
	k.tags[i] = k.foreign(i)
	k.valid[i>>6] &^= 1 << (i & 63)
	k.dirty[i>>6] &^= 1 << (i & 63)
	return dirty
}

// fill places l, which is not resident, with the given dirty bit, as
// cache.Cache's insertion does: into the set's first empty way, or over
// the way the replacement policy picks when the set is full.
func (k *l2Kernel) fill(l cache.LineAddr, dirty bool) {
	base := int(l&k.setMask) << k.strideShift
	if e := ^(k.valid[base>>6] >> (base & 63)) & k.wayMask; e != 0 {
		if i := k.place(base, bits.TrailingZeros64(e), l); dirty {
			k.markDirty(i)
		}
		return
	}
	k.replace(base, l, dirty)
}

// place puts l into way w of the set at slot base, which is empty, and
// returns its slot. An empty slot's dirty bit is clear.
func (k *l2Kernel) place(base, w int, l cache.LineAddr) int {
	i := base + w
	k.tags[i] = l
	k.valid[i>>6] |= 1 << (i & 63)
	k.repl.Filled(base>>k.strideShift, w)
	return i
}

// replace is fill for the set at slot base once its first 64 ways are
// full.
func (k *l2Kernel) replace(base int, l cache.LineAddr, dirty bool) {
	for w := 64; w < k.ways; w += 64 {
		if e := ^k.valid[(base+w)>>6]; e != 0 {
			if i := k.place(base, w+bits.TrailingZeros64(e), l); dirty {
				k.markDirty(i)
			}
			return
		}
	}
	set := base >> k.strideShift
	w := k.repl.Victim(set)
	k.repl.Touch(set, w)
	i := base + w
	k.evictions++
	if k.dirty[i>>6]>>(i&63)&1 != 0 {
		k.dirtyOut++
		k.dirty[i>>6] &^= 1 << (i & 63)
	}
	k.tags[i] = l
	if dirty {
		k.markDirty(i)
	}
}
