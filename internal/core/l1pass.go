package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// This file is the L1-once kernel. With write-back, write-allocate
// stores, a direct-mapped L1 never reads L2 state to decide its hits,
// misses and victims, under the conventional and the exclusive policy
// alike: they are the same whatever sits below it. So one pass of a
// trace through a split direct-mapped L1 pair yields the L1 counters of
// every such hierarchy with those L1s, plus the stream of L1 misses the
// L2 sees (a pass, which an L1Recorder records for several L1 pairs in
// one walk). Each pass has one reader, its Follower, which simulates
// every L2 below those L1s over that stream alone, by a replay state
// stepped one chunk of the stream at a time behind the recorder. The
// only L2 state an exclusive L1 takes in is the dirty bit of a line
// that moves up, which the replay tracks per L1 slot. DESIGN.md
// "L1-once replay" states the exactness argument.

// ctxCheckInterval is how many references the recorder walks between
// checks of its context, and the most miss events a chunk of a pass
// holds.
const ctxCheckInterval = 8192

// ReplayEligible reports whether a Follower can stand in for System.Run
// on cfg: both L1s are direct-mapped, stores write back and allocate, and
// the hierarchy is single-level, conventional or exclusive. Inclusive
// hierarchies back-invalidate L1 lines on L2 evictions, so their L1
// contents depend on the L2; they and set-associative L1s take the
// general path.
func ReplayEligible(cfg Config) bool {
	return cfg.L1I.Assoc == 1 && cfg.L1D.Assoc == 1 && cfg.Writes == WriteBackAllocate &&
		(!cfg.TwoLevel() || cfg.Policy != Inclusive)
}

// missEvent is one L1 miss, in trace order: the line that missed and the
// line it displaced if that line was written while in the L1. Victim
// equals Line otherwise; a victim is never the line that missed, so the
// encoding is unambiguous.
type missEvent struct {
	Line, Victim cache.LineAddr
}

// dmL1 is a direct-mapped L1 specialised for the pass, with its counters
// and the lowest and highest line it missed (lo > hi before any miss).
type dmL1 struct {
	lines                                 []dmLine
	mask                                  uint64
	refs, misses, evictions, dirtyVictims uint64
	lo, hi                                cache.LineAddr
}

type dmLine struct {
	tag          cache.LineAddr
	valid, dirty bool
}

// disjoint reports whether the missed line ranges of two L1s do not
// overlap, so that no line has been in both.
func disjoint(i, d *dmL1) bool { return i.hi < d.lo || d.hi < i.lo }

// A Follower is one pass of an L1Recorder, the walk of a trace through
// a split direct-mapped L1 pair, and the pass's one reader: it replays
// the miss stream every L2 below those L1s sees into the L2s of several
// configurations while the pass records. The recorder publishes the
// stream in chunks: a chunk is published once it is full and is
// immutable from then on, and the recorder's Finish publishes the last
// chunk and the L1 counters. The follower walks each published chunk
// through every configuration's replay state in turn, chunk-major, so
// the chunk and the L2s stay in the processor's caches, and then frees
// it, so a pass holds only the chunks its follower has yet to walk. A
// Follower is used by one goroutine; the recorder runs on another.
type Follower struct {
	l1i, l1d cache.Config
	st       Stats // reference and L1 counters, set by Finish
	icache   dmL1  // L1I counters (the lines are dropped after the pass)
	dcache   dmL1  // L1D counters

	// The recorder's side: the L1I's and the L1D's caches in the
	// recorder, whose missed ranges a chunk's disjoint flag reads when it
	// is published, the chunk being filled, the capacity of the next one
	// and the most a chunk grows to.
	src            [2]*dmL1
	cur            missChunk
	size, maxChunk int

	mu       sync.Mutex
	chunks   []missChunk // published, in trace order
	finished bool
	ready    chan struct{} // one token, sent on every publication

	// The follower's side: each configuration and its replay state, the
	// next chunk to walk and the miss events walked.
	cfgs   []Config
	reps   []replayer
	next   int
	events uint64
}

// missChunk is a run of a pass's miss events in trace order. Chunks
// start at firstChunk events and double up to maxChunk, each allocated
// at its full length once, so recording copies no event.
type missChunk struct {
	events []missEvent
	instr  []uint64 // bit j%64 of word j/64 set: events[j] missed in the L1I
	// disjoint reports that the L1I's and the L1D's missed line ranges
	// did not overlap up to the chunk's last event, so that no line of
	// the trace so far has been in both L1s.
	disjoint bool
}

const (
	firstChunk = 256
	maxChunk   = ctxCheckInterval
)

// L1Recorder records the L1 passes of several split direct-mapped L1
// geometries over one trace in a single walk, fed chunk by chunk. It
// rests on inclusion (Hill & Smith, IEEE TC 1989): a direct-mapped cache
// holds in each slot the most recent line that maps to it, so with equal
// lines a hit in a cache is a hit in every larger one, and a line dirty
// in the smaller cache is dirty in the larger. The walk probes the
// distinct caches of a reference's side, per line size, from smallest to
// largest and stops at the first hit; the larger caches then only take a store's
// dirty bit. A miss records its event in every pass with that cache, as
// a pass of that geometry alone would.
type L1Recorder struct {
	fols   []*Follower  // one per pass
	sides  [2][]l1Chain // the L1I's caches, then the L1D's
	refs   [2]uint64    // instruction and data references
	writes uint64
}

// l1Chain is the distinct caches of one side with one line size,
// smallest first.
type l1Chain struct {
	shift  uint
	caches []recCache
}

// recCache is one distinct L1 cache of a recorder and the passes that
// have it as their L1 of its side.
type recCache struct {
	dmL1
	users []*Follower
}

// NewL1Recorder prepares a recorder with one pass per group of
// configurations, in order, each with the Follower that replays it into
// every configuration of its group. A group must not be empty, and each
// of its configurations must be valid, ReplayEligible and have the
// first one's L1s.
func NewL1Recorder(groups [][]Config) (*L1Recorder, error) {
	r := &L1Recorder{}
	for _, cfgs := range groups {
		if len(cfgs) == 0 {
			return nil, errors.New("core: an L1 pass needs a configuration to replay")
		}
		f := &Follower{l1i: cfgs[0].L1I, l1d: cfgs[0].L1D, cfgs: cfgs, size: firstChunk, maxChunk: maxChunk, ready: make(chan struct{}, 1)}
		for _, cfg := range cfgs {
			if err := f.check(cfg); err != nil {
				return nil, err
			}
			f.reps = append(f.reps, newReplayer(cfg))
		}
		r.fols = append(r.fols, f)
		r.sides[0] = useCache(r.sides[0], f.l1i, f)
		r.sides[1] = useCache(r.sides[1], f.l1d, f)
	}
	// The caches are in place now, so their addresses hold.
	for side, chains := range r.sides {
		for _, ch := range chains {
			for i := range ch.caches {
				for _, f := range ch.caches[i].users {
					f.src[side] = &ch.caches[i].dmL1
				}
			}
		}
	}
	return r, nil
}

// useCache adds pass f as a user of cache c to one side's chains, adding
// the cache, and its chain, if the side has none like it.
func useCache(chains []l1Chain, c cache.Config, f *Follower) []l1Chain {
	shift := uint(bits.TrailingZeros(uint(c.LineSize)))
	i := 0
	for i < len(chains) && chains[i].shift != shift {
		i++
	}
	if i == len(chains) {
		chains = append(chains, l1Chain{shift: shift})
	}
	cs, mask := chains[i].caches, uint64(c.Lines()-1)
	j := 0
	for j < len(cs) && cs[j].mask < mask {
		j++
	}
	if j == len(cs) || cs[j].mask != mask {
		cs = slices.Insert(cs, j, recCache{dmL1: dmL1{lines: make([]dmLine, c.Lines()), mask: mask, lo: ^cache.LineAddr(0)}})
	}
	cs[j].users = append(cs[j].users, f)
	chains[i].caches = cs
	return chains
}

// Followers returns the followers of the passes the recorder records,
// one per group given to NewL1Recorder, in that order.
func (r *L1Recorder) Followers() []*Follower { return r.fols }

// Record walks the next chunk of the trace through every pass. It
// checks ctx every ctxCheckInterval references of the whole trace and
// returns ctx's error once it is done; the passes are then incomplete.
func (r *L1Recorder) Record(ctx context.Context, refs []trace.Ref) error {
	for len(refs) > 0 {
		n := r.refs[0] + r.refs[1]
		if n%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		k := min(len(refs), int(ctxCheckInterval-n%ctxCheckInterval))
		r.walk(refs[:k])
		refs = refs[k:]
	}
	return nil
}

func (r *L1Recorder) walk(refs []trace.Ref) {
	for _, ref := range refs {
		side, write := 1, ref.Kind == trace.Write
		if ref.Kind == trace.Instr {
			side = 0
		}
		r.refs[side]++
		if write {
			r.writes++
		}
		for i := range r.sides[side] {
			ch := &r.sides[side][i]
			l := cache.LineAddr(ref.Addr >> ch.shift)
			cs, k := ch.caches, 0
			for ; k < len(cs); k++ {
				c := &cs[k]
				e := &c.lines[uint64(l)&c.mask]
				if e.valid && e.tag == l {
					break
				}
				c.misses++
				c.lo, c.hi = min(c.lo, l), max(c.hi, l)
				ev := missEvent{Line: l, Victim: l}
				if e.valid {
					c.evictions++
					if e.dirty {
						c.dirtyVictims++
						ev.Victim = e.tag
					}
				}
				*e = dmLine{tag: l, valid: true, dirty: write}
				for _, f := range c.users {
					f.record(ev, side == 0)
				}
			}
			// The line hit in cs[k], so it is in every larger cache too.
			for ; write && k < len(cs); k++ {
				c := &cs[k]
				c.lines[uint64(l)&c.mask].dirty = true
			}
		}
	}
}

// record appends one miss event, and whether the L1I missed it, and
// publishes the chunk it fills.
func (f *Follower) record(ev missEvent, instr bool) {
	c := &f.cur
	if len(c.events) == cap(c.events) {
		n := f.size
		f.size = min(2*n, f.maxChunk)
		*c = missChunk{events: make([]missEvent, 0, n), instr: make([]uint64, (n+63)/64)}
	}
	if instr {
		j := len(c.events)
		c.instr[j/64] |= 1 << (j % 64)
	}
	c.events = append(c.events, ev)
	if len(c.events) == cap(c.events) {
		f.publish()
	}
}

// publish hands the chunk being filled to the follower, flagged with
// whether the L1s' missed ranges are still disjoint, and starts a new
// one at the next event.
func (f *Follower) publish() {
	f.cur.disjoint = disjoint(f.src[0], f.src[1])
	f.mu.Lock()
	f.chunks = append(f.chunks, f.cur)
	f.mu.Unlock()
	f.cur = missChunk{}
	f.signal()
}

// signal wakes the follower, if it waits.
func (f *Follower) signal() {
	select {
	case f.ready <- struct{}{}:
	default:
	}
}

// Finish publishes the last chunk and the L1 counters of every pass. It
// drops the recorder's L1 arrays.
func (r *L1Recorder) Finish() {
	for _, f := range r.fols {
		if len(f.cur.events) > 0 {
			f.publish()
		}
		f.src = [2]*dmL1{}
	}
	for side, chains := range r.sides {
		for _, ch := range chains {
			for i := range ch.caches {
				c := &ch.caches[i]
				c.lines, c.refs = nil, r.refs[side]
				for _, f := range c.users {
					if side == 0 {
						f.icache = c.dmL1
					} else {
						f.dcache = c.dmL1
					}
				}
			}
		}
	}
	for _, f := range r.fols {
		f.st = Stats{
			InstrRefs: f.icache.refs,
			DataRefs:  f.dcache.refs,
			WriteRefs: r.writes,
			L1IHits:   f.icache.refs - f.icache.misses,
			L1IMisses: f.icache.misses,
			L1DHits:   f.dcache.refs - f.dcache.misses,
			L1DMisses: f.dcache.misses,
		}
		f.mu.Lock()
		f.finished = true
		f.mu.Unlock()
		f.signal()
	}
	*r = L1Recorder{}
}

// check reports why cfg cannot replay over the pass, if it cannot.
func (f *Follower) check(cfg Config) error {
	if !ReplayEligible(cfg) || cfg.L1I != f.l1i || cfg.L1D != f.l1d {
		return fmt.Errorf("core: cannot replay %s over an L1 pass of %s and %s", cfg, f.l1i, f.l1d)
	}
	return cfg.Validate()
}

// Wait blocks until a chunk the follower has not walked is published
// and reports true, or until the pass is finished and every chunk walked
// and reports false. It returns ctx's error once ctx is done.
func (f *Follower) Wait(ctx context.Context) (bool, error) {
	for {
		f.mu.Lock()
		n, finished := len(f.chunks), f.finished
		f.mu.Unlock()
		switch {
		case f.next < n:
			return true, nil
		case finished:
			return false, nil
		}
		select {
		case <-f.ready:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// Step walks the next published chunk, which Wait has reported, through
// every configuration's L2 and frees it.
func (f *Follower) Step() {
	f.mu.Lock()
	c := f.chunks[f.next]
	f.chunks[f.next] = missChunk{}
	f.mu.Unlock()
	f.next++
	f.events += uint64(len(c.events))
	for _, r := range f.reps {
		r.step(&c)
	}
}

// Events reports how many miss events the follower has walked.
func (f *Follower) Events() uint64 { return f.events }

// Results returns each configuration's replay, in the order of its
// group, once Wait has reported the pass finished and walked.
func (f *Follower) Results() []Replayed {
	out := make([]Replayed, len(f.cfgs))
	for i, cfg := range f.cfgs {
		out[i] = Replayed{Stats: f.st, twoLevel: cfg.TwoLevel(), l1: [2]dmL1{f.icache, f.dcache}}
		f.reps[i].finish(&out[i])
	}
	return out
}

// Replayed is one configuration's replay: the statistics System.Run
// would return, and the counts Instrument adds.
type Replayed struct {
	Stats Stats

	twoLevel    bool
	l1          [2]dmL1   // the L1I's and the L1D's counters (no lines)
	upDirtyOut  [2]uint64 // their victims dirty only from an exclusive L2
	l2Evictions uint64
	l2DirtyOut  uint64
}

// Instrument adds the replayed hierarchy's counters to reg under the
// names System.Instrument uses, registering the policy counters the
// hierarchy leaves at zero, so a registry has the same shape whichever
// path filled it. The L1 caches count the victims that were dirty only
// because they came up dirty from an exclusive L2 as dirty write-backs
// too. A nil reg is a no-op.
func (r *Replayed) Instrument(reg *obs.Registry) {
	if r.twoLevel {
		reg.Counter("cache_l2_hits_total").Add(r.Stats.L2Hits)
		reg.Counter("cache_l2_misses_total").Add(r.Stats.L2Misses)
		reg.Counter("cache_l2_evictions_total").Add(r.l2Evictions)
		reg.Counter("cache_l2_dirty_writebacks_total").Add(r.l2DirtyOut)
	}
	for i, name := range []string{"cache_l1i", "cache_l1d"} {
		c := &r.l1[i]
		reg.Counter(name + "_hits_total").Add(c.refs - c.misses)
		reg.Counter(name + "_misses_total").Add(c.misses)
		reg.Counter(name + "_evictions_total").Add(c.evictions)
		reg.Counter(name + "_dirty_writebacks_total").Add(c.dirtyVictims + r.upDirtyOut[i])
	}
	reg.Counter(metricOffChip).Add(r.Stats.OffChipFetches)
	reg.Counter(metricSwaps).Add(r.Stats.Swaps)
	reg.Counter(metricVictims).Add(r.Stats.VictimsToL2)
	reg.Counter(metricBackInv)
}

// replayer is the state of one configuration's replay: step drives it
// through one chunk of miss events, in trace order, and finish completes
// the Replayed, which holds the pass's reference and L1 counters, from
// it.
type replayer interface {
	step(c *missChunk)
	finish(r *Replayed)
}

// newReplayer returns cfg's replay state. A two-level cfg replays the
// miss events into a fresh l2Kernel of its L2 (l2kernel.go), through
// the conventional or the exclusive operation order. A single-level cfg
// needs no L2: every L1 miss is an off-chip fetch and every dirty victim
// an off-chip write-back.
func newReplayer(cfg Config) replayer {
	switch {
	case !cfg.TwoLevel():
		return singleLevel{}
	case cfg.Policy == Exclusive:
		return newExclusiveReplay(cfg, newL2Kernel(cfg.L2))
	default:
		return &conventionalReplay{l2: newL2Kernel(cfg.L2)}
	}
}

type singleLevel struct{}

func (singleLevel) step(*missChunk) {}

func (singleLevel) finish(r *Replayed) {
	r.Stats.OffChipFetches = r.Stats.L1Misses()
	r.Stats.WriteBacksOffChip = r.l1[0].dirtyVictims + r.l1[1].dirtyVictims
}

// conventionalReplay drives its l2 through System.Access's conventional
// order for every miss event: the dirty victim writes back into the
// L2's copy if there is one (otherwise off-chip), then the missing line
// is looked up, and filled on a miss. It counts the L2 hits and the
// write-backs into the L2.
type conventionalReplay struct {
	l2         *l2Kernel
	hits, toL2 uint64
}

func (x *conventionalReplay) step(c *missChunk) {
	if x.l2.narrow() {
		x.stepNarrow(c)
	} else {
		x.stepGeneral(c)
	}
}

// stepGeneral serves an L2 of any geometry; stepNarrow is the same loop
// for the common one.
func (x *conventionalReplay) stepGeneral(c *missChunk) {
	l2 := x.l2
	hits, toL2 := x.hits, x.toL2
	for _, ev := range c.events {
		if ev.Victim != ev.Line {
			if i := l2.find(ev.Victim); i >= 0 {
				l2.markDirty(i)
				toL2++
			}
		}
		if i := l2.find(ev.Line); i >= 0 {
			hits++
			l2.touch(i)
		} else {
			l2.fill(ev.Line, false)
		}
	}
	x.hits, x.toL2 = hits, toL2
}

// stepNarrow is stepGeneral for a narrow l2 (l2Kernel.narrow), which
// covers every L2 of the paper's grid. Its probes are one inline match
// each, with the kernel's slices held in locals, and a fill into an
// empty way is inline too: a Go function call in this loop costs the
// loop its registers, so it calls out only to replace a line.
func (x *conventionalReplay) stepNarrow(c *missChunk) {
	l2 := x.l2
	tags, valid, dirty, setMask := l2.tags, l2.valid, l2.dirty, l2.setMask
	repl := &l2.repl
	hits, toL2 := x.hits, x.toL2
	for _, ev := range c.events {
		if ev.Victim != ev.Line {
			base := int(ev.Victim&setMask) << probeShift
			if m := match(tags, base, ev.Victim); m != 0 {
				dirty[base>>6] |= m << (base & 63)
				toL2++
			}
		}
		base := int(ev.Line&setMask) << probeShift
		if m := match(tags, base, ev.Line); m != 0 {
			hits++
			repl.Touch(base>>probeShift, bits.TrailingZeros64(m))
		} else if e := ^(valid[base>>6] >> (base & 63)) & l2.wayMask; e != 0 {
			l2.place(base, bits.TrailingZeros64(e), ev.Line)
		} else {
			l2.replace(base, ev.Line, false)
		}
	}
	x.hits, x.toL2 = hits, toL2
}

// finish completes r from the L2 hits and write-backs into the L2:
// every other event missed, and every other dirty L1 victim, like every
// dirty L2 victim, went off-chip.
func (x *conventionalReplay) finish(r *Replayed) {
	st := &r.Stats
	st.L2Hits = x.hits
	st.L2Misses = st.L1Misses() - x.hits
	st.WriteBacksToL2 = x.toL2
	st.WriteBacksOffChip = r.l1[0].dirtyVictims + r.l1[1].dirtyVictims - x.toL2 + x.l2.dirtyOut
	st.OffChipFetches = st.L2Misses
	r.l2Evictions, r.l2DirtyOut = x.l2.evictions, x.l2.dirtyOut
}

// exclusiveReplay drives its l2 through System.accessExclusive's order
// for every miss event: the missing line is looked up; on a hit it
// moves up, leaving the L2 with its dirty bit; then the L1 victim, clean
// or dirty, moves down. The victim is the line the previous miss in the
// same L1 slot brought in, and it is dirty if it was written in the L1
// (the event's Victim) or came up dirty from the L2 (the slot's
// came-up-dirty bit).
//
// The state holds the L1 slots of both L1s, the L1I's then the L1D's,
// as a line array plus a valid and a came-up-dirty bitset, and the
// counts. Both of its loops keep the slots so, so a replay that starts
// on stepDisjoint carries its state over unchanged to stepProbing at
// the first chunk whose L1 ranges overlap.
type exclusiveReplay struct {
	l2      *l2Kernel
	lines   []cache.LineAddr
	valid   []uint64
	upDirty []uint64
	// Indexed by the event's L1I bit: the L1D's slot mask and first
	// slot, then the L1I's.
	mask                       [2]cache.LineAddr
	off                        [2]int
	hits, victims, toL2, swaps uint64
	upDirtyOut                 [2]uint64 // the L1I's, then the L1D's
}

func newExclusiveReplay(cfg Config, l2 *l2Kernel) *exclusiveReplay {
	ni, nd := cfg.L1I.Lines(), cfg.L1D.Lines()
	words := (ni + nd + 63) / 64
	return &exclusiveReplay{
		l2:      l2,
		lines:   make([]cache.LineAddr, ni+nd),
		valid:   make([]uint64, words),
		upDirty: make([]uint64, words),
		mask:    [2]cache.LineAddr{cache.LineAddr(nd - 1), cache.LineAddr(ni - 1)},
		off:     [2]int{ni, 0},
	}
}

// step takes stepDisjoint while the L1s' missed ranges are disjoint up
// to the chunk's end and the L2 is narrow, and stepProbing otherwise.
// Ranges only grow, so once a chunk is not disjoint no later one is.
func (x *exclusiveReplay) step(c *missChunk) {
	if c.disjoint && x.l2.narrow() {
		x.stepDisjoint(c)
	} else {
		x.stepProbing(c)
	}
}

// stepProbing serves the chunks stepDisjoint cannot: those whose L1s
// may share a line, and every chunk into an L2 that is not narrow. It
// probes the L2 for the victim, which may already be there when the
// other L1 holds it too; the transfer then refreshes that copy. A
// narrow l2 takes inline probes, as in stepNarrow; any other l2 takes
// the kernel's general methods.
func (x *exclusiveReplay) stepProbing(c *missChunk) {
	l2 := x.l2
	lines, valid, upDirty, mask, off := x.lines, x.valid, x.upDirty, x.mask, x.off
	tags, l2valid, setMask, narrow := l2.tags, l2.valid, l2.setMask, l2.narrow()
	hits, victims, toL2, swaps, upDirtyOut := x.hits, x.victims, x.toL2, x.swaps, x.upDirtyOut
	for j, ev := range c.events {
		b := c.instr[j>>6] >> (j & 63) & 1
		k := int(ev.Line&mask[b]) + off[b]
		w, bit := k>>6, uint64(1)<<(k&63)
		victim, hadVictim := lines[k], valid[w]&bit != 0
		written := ev.Victim != ev.Line
		dirty := written || upDirty[w]&bit != 0
		lines[k] = ev.Line
		valid[w] |= bit
		upDirty[w] &^= bit
		hit := -1
		if narrow {
			base := int(ev.Line&setMask) << probeShift
			if m := match(tags, base, ev.Line); m != 0 {
				hit = base + bits.TrailingZeros64(m)
			}
		} else {
			hit = l2.find(ev.Line)
		}
		if hit >= 0 {
			hits++
			l2.touch(hit)
			if l2.invalidate(hit) {
				upDirty[w] |= bit
			}
		}
		if !hadVictim {
			continue
		}
		victims++
		if dirty {
			toL2++
			if !written {
				upDirtyOut[1-b]++
			}
		}
		if hit >= 0 && victim&setMask == ev.Line&setMask {
			swaps++
		}
		i := -1
		if narrow {
			base := int(victim&setMask) << probeShift
			if m := match(tags, base, victim); m != 0 {
				i = base + bits.TrailingZeros64(m)
			} else if e := ^(l2valid[base>>6] >> (base & 63)) & l2.wayMask; e != 0 {
				if i := l2.place(base, bits.TrailingZeros64(e), victim); dirty {
					l2.markDirty(i)
				}
				continue
			}
		} else {
			i = l2.find(victim)
		}
		if i < 0 {
			l2.fill(victim, dirty)
		} else if l2.touch(i); dirty {
			l2.markDirty(i)
		}
	}
	x.hits, x.victims, x.toL2, x.swaps, x.upDirtyOut = hits, victims, toL2, swaps, upDirtyOut
}

// stepDisjoint is stepProbing for a narrow l2 over a chunk whose L1s
// have not shared a line. Under the exclusive policy a line is in the
// L2 only while it is in no L1, as long as no line is in both L1s at
// once: a line leaves the L2 when it moves up, and enters it only as a
// victim, when it leaves its L1. Up to the end of a disjoint chunk no
// line has been in both, so the victim, which is in its L1 until this
// event, is not in the L2: it is filled without a probe. The loop keeps
// the L2 inline as stepNarrow does.
func (x *exclusiveReplay) stepDisjoint(c *missChunk) {
	l2 := x.l2
	lines, valid, upDirty, mask, off := x.lines, x.valid, x.upDirty, x.mask, x.off
	tags, l2valid, l2dirty, setMask, wayMask := l2.tags, l2.valid, l2.dirty, l2.setMask, l2.wayMask
	repl := &l2.repl
	hits, victims, toL2, swaps, upDirtyOut := x.hits, x.victims, x.toL2, x.swaps, x.upDirtyOut
	for j, ev := range c.events {
		b := c.instr[j>>6] >> (j & 63) & 1
		k := int(ev.Line&mask[b]) + off[b]
		w, bit := k>>6, uint64(1)<<(k&63)
		victim, hadVictim := lines[k], valid[w]&bit != 0
		written := ev.Victim != ev.Line
		dirty := written || upDirty[w]&bit != 0
		lines[k] = ev.Line
		valid[w] |= bit
		upDirty[w] &^= bit
		set := ev.Line & setMask
		base := int(set) << probeShift
		hit := false
		if m := match(tags, base, ev.Line); m != 0 {
			hit = true
			hits++
			way := bits.TrailingZeros64(m)
			repl.Touch(base>>probeShift, way)
			// Invalidate the way, as l2Kernel.invalidate does.
			i := base + way
			iw, ibit := i>>6, uint64(1)<<(i&63)
			if l2dirty[iw]&ibit != 0 {
				upDirty[w] |= bit
				l2dirty[iw] &^= ibit
			}
			l2valid[iw] &^= ibit
			tags[i] = (set ^ 1) & setMask
		}
		if !hadVictim {
			continue
		}
		victims++
		if dirty {
			toL2++
			if !written {
				upDirtyOut[1-b]++
			}
		}
		vset := victim & setMask
		if hit && vset == set {
			swaps++
		}
		vbase := int(vset) << probeShift
		if e := ^(l2valid[vbase>>6] >> (vbase & 63)) & wayMask; e != 0 {
			i := l2.place(vbase, bits.TrailingZeros64(e), victim)
			if dirty {
				l2dirty[i>>6] |= 1 << (i & 63)
			}
		} else {
			l2.replace(vbase, victim, dirty)
		}
	}
	x.hits, x.victims, x.toL2, x.swaps, x.upDirtyOut = hits, victims, toL2, swaps, upDirtyOut
}

// finish completes r from the counts: every other event missed in the
// L2, and only dirty L2 victims went off-chip.
func (x *exclusiveReplay) finish(r *Replayed) {
	st := &r.Stats
	st.L2Hits = x.hits
	st.L2Misses = st.L1Misses() - x.hits
	st.VictimsToL2 = x.victims
	st.WriteBacksToL2 = x.toL2
	st.Swaps = x.swaps
	st.WriteBacksOffChip = x.l2.dirtyOut
	st.OffChipFetches = st.L2Misses
	r.upDirtyOut = x.upDirtyOut
	r.l2Evictions, r.l2DirtyOut = x.l2.evictions, x.l2.dirtyOut
}
