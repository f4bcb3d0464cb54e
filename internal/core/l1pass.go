package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

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
// L2 sees (an L1Pass, which an L1Recorder records for several L1 pairs
// in one walk); each L2 is then simulated over that stream alone
// (L1Pass.Replay). The only L2 state an exclusive L1 takes in is the
// dirty bit of a line that moves up, which the replay tracks per L1
// slot. DESIGN.md "L1-once replay" states the exactness argument.

// ctxCheckInterval is how many references the recorder walks between
// checks of its context, and the most miss events a replay runs between
// checks (one per chunk of the pass).
const ctxCheckInterval = 8192

// ReplayEligible reports whether an L1Pass can stand in for System.Run
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

// L1Pass records one trace through a split direct-mapped L1 pair: the L1
// counters and the miss stream every L2 below those L1s sees. It is
// immutable once recorded, so concurrent Replays may share it.
type L1Pass struct {
	l1i, l1d cache.Config
	st       Stats // reference and L1 counters
	icache   dmL1  // L1I counters (the lines are dropped after the pass)
	dcache   dmL1  // L1D counters
	chunks   []missChunk
}

// missChunk is a run of a pass's miss events in trace order. Chunks
// start at firstChunk events and double up to maxChunk, each allocated
// at its full length once, so recording copies no event and leaves at
// most one part-filled chunk.
type missChunk struct {
	events []missEvent
	instr  []uint64 // bit j%64 of word j/64 set: events[j] missed in the L1I
}

const (
	firstChunk = 256
	maxChunk   = ctxCheckInterval
)

// Refs reports the length of the recorded trace.
func (p *L1Pass) Refs() uint64 { return p.st.Refs() }

// RecordL1 runs refs through cfg's split L1s, which must be
// direct-mapped; cfg's L2, policy and write mode are ignored. It checks
// ctx every ctxCheckInterval references and returns ctx's error once it
// is done. It is an L1Recorder of one geometry.
func RecordL1(ctx context.Context, cfg Config, refs []trace.Ref) (*L1Pass, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rec, err := NewL1Recorder([]Config{cfg})
	if err != nil {
		return nil, err
	}
	if err := rec.Record(ctx, refs); err != nil {
		return nil, err
	}
	return rec.Finish()[0], nil
}

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
	passes []*L1Pass
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
	users []*L1Pass
}

// NewL1Recorder prepares a recorder with one pass per configuration, in
// order. Only the L1s of each configuration matter: they must be valid
// and direct-mapped, with one line size per configuration.
func NewL1Recorder(cfgs []Config) (*L1Recorder, error) {
	r := &L1Recorder{}
	for _, cfg := range cfgs {
		if err := (Config{L1I: cfg.L1I, L1D: cfg.L1D}).Validate(); err != nil {
			return nil, err
		}
		if cfg.L1I.Assoc != 1 || cfg.L1D.Assoc != 1 {
			return nil, fmt.Errorf("core: L1 pass needs direct-mapped L1s, got %s and %s", cfg.L1I, cfg.L1D)
		}
		p := &L1Pass{l1i: cfg.L1I, l1d: cfg.L1D}
		r.passes = append(r.passes, p)
		r.sides[0] = useCache(r.sides[0], cfg.L1I, p)
		r.sides[1] = useCache(r.sides[1], cfg.L1D, p)
	}
	return r, nil
}

// useCache adds pass p as a user of cache c to one side's chains, adding
// the cache, and its chain, if the side has none like it.
func useCache(chains []l1Chain, c cache.Config, p *L1Pass) []l1Chain {
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
	cs[j].users = append(cs[j].users, p)
	chains[i].caches = cs
	return chains
}

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
				for _, p := range c.users {
					p.record(ev, side == 0)
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

// record appends one miss event, and whether the L1I missed it.
func (p *L1Pass) record(ev missEvent, instr bool) {
	k := len(p.chunks) - 1
	if k < 0 || len(p.chunks[k].events) == cap(p.chunks[k].events) {
		n := firstChunk
		if k >= 0 {
			n = min(2*cap(p.chunks[k].events), maxChunk)
		}
		p.chunks = append(p.chunks, missChunk{events: make([]missEvent, 0, n), instr: make([]uint64, n/64)})
		k++
	}
	c := &p.chunks[k]
	if instr {
		j := len(c.events)
		c.instr[j/64] |= 1 << (j % 64)
	}
	c.events = append(c.events, ev)
}

// Finish returns the recorded passes, one per configuration given to
// NewL1Recorder, in that order, and drops the recorder's L1 arrays.
func (r *L1Recorder) Finish() []*L1Pass {
	for side, chains := range r.sides {
		for _, ch := range chains {
			for i := range ch.caches {
				c := &ch.caches[i]
				c.lines, c.refs = nil, r.refs[side]
				for _, p := range c.users {
					if side == 0 {
						p.icache = c.dmL1
					} else {
						p.dcache = c.dmL1
					}
				}
			}
		}
	}
	for _, p := range r.passes {
		p.st = Stats{
			InstrRefs: p.icache.refs,
			DataRefs:  p.dcache.refs,
			WriteRefs: r.writes,
			L1IHits:   p.icache.refs - p.icache.misses,
			L1IMisses: p.icache.misses,
			L1DHits:   p.dcache.refs - p.dcache.misses,
			L1DMisses: p.dcache.misses,
		}
	}
	passes := r.passes
	*r = L1Recorder{}
	return passes
}

// Replay returns the statistics System.Run would return for cfg over the
// recorded trace, field for field. cfg must be ReplayEligible and have
// the pass's L1s. A two-level cfg replays the miss events into a fresh
// l2Kernel of cfg's L2 (l2kernel.go), through the conventional or the
// exclusive operation order, on a loop specialised for a narrow L2 when
// the replay can take one. A single-level cfg needs no L2: every L1
// miss is an off-chip fetch and every dirty victim an off-chip
// write-back.
//
// reg, when non-nil, receives the counters System.Instrument would have
// accumulated. Replay checks ctx before each chunk of events, so at
// least every ctxCheckInterval events.
func (p *L1Pass) Replay(ctx context.Context, cfg Config, reg *obs.Registry) (Stats, error) {
	if !ReplayEligible(cfg) || cfg.L1I != p.l1i || cfg.L1D != p.l1d {
		return Stats{}, fmt.Errorf("core: cannot replay %s over an L1 pass of %s and %s", cfg, p.l1i, p.l1d)
	}
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	st := p.st
	if !cfg.TwoLevel() {
		st.OffChipFetches = st.L1Misses()
		st.WriteBacksOffChip = p.icache.dirtyVictims + p.dcache.dirtyVictims
		p.instrument(reg, st, [2]uint64{})
		return st, nil
	}
	l2 := newL2Kernel(cfg.L2)
	var upDirtyOut [2]uint64
	var err error
	switch {
	case cfg.Policy == Exclusive && l2.narrow() && p.disjoint():
		upDirtyOut, err = p.replayExclusiveNarrow(ctx, l2, &st)
	case cfg.Policy == Exclusive:
		upDirtyOut, err = p.replayExclusive(ctx, l2, &st)
	case l2.narrow():
		err = p.replayNarrow(ctx, l2, &st)
	default:
		err = p.replayConventional(ctx, l2, &st)
	}
	if err != nil {
		return Stats{}, err
	}
	st.OffChipFetches = st.L2Misses
	reg.Counter("cache_l2_hits_total").Add(st.L2Hits)
	reg.Counter("cache_l2_misses_total").Add(st.L2Misses)
	reg.Counter("cache_l2_evictions_total").Add(l2.evictions)
	reg.Counter("cache_l2_dirty_writebacks_total").Add(l2.dirtyOut)
	p.instrument(reg, st, upDirtyOut)
	return st, nil
}

// replayConventional drives l2 through System.Access's conventional
// order for every miss event: the dirty victim writes back into the
// L2's copy if there is one (otherwise off-chip), then the missing line
// is looked up, and filled on a miss. It serves an L2 of any geometry;
// replayNarrow is the same loop for the common one.
func (p *L1Pass) replayConventional(ctx context.Context, l2 *l2Kernel, st *Stats) error {
	var hits, toL2 uint64
	for _, c := range p.chunks {
		if err := ctx.Err(); err != nil {
			return err
		}
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
	}
	p.conventionalStats(st, l2, hits, toL2)
	return nil
}

// replayNarrow is replayConventional for a narrow l2 (l2Kernel.narrow),
// which covers every L2 of the paper's grid. Its probes are one inline
// match each, with the kernel's slices held in locals, and a fill into
// an empty way is inline too: a Go function call in this loop costs
// the loop its registers, so it calls out only to replace a line.
func (p *L1Pass) replayNarrow(ctx context.Context, l2 *l2Kernel, st *Stats) error {
	tags, valid, dirty, setMask := l2.tags, l2.valid, l2.dirty, l2.setMask
	repl := &l2.repl
	var hits, toL2 uint64
	for _, c := range p.chunks {
		if err := ctx.Err(); err != nil {
			return err
		}
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
	}
	p.conventionalStats(st, l2, hits, toL2)
	return nil
}

// conventionalStats completes st from a conventional replay's L2 hits
// and write-backs into the L2: every other event missed, and every other
// dirty L1 victim, like every dirty L2 victim, went off-chip.
func (p *L1Pass) conventionalStats(st *Stats, l2 *l2Kernel, hits, toL2 uint64) {
	st.L2Hits = hits
	st.L2Misses = st.L1Misses() - hits
	st.WriteBacksToL2 = toL2
	st.WriteBacksOffChip = p.icache.dirtyVictims + p.dcache.dirtyVictims - toL2 + l2.dirtyOut
}

// exclusiveSlot is the replay's view of one L1 slot under the exclusive
// policy: the line the slot's last miss brought in, and whether that line
// came up dirty from the L2.
type exclusiveSlot struct {
	line           cache.LineAddr
	valid, upDirty bool
}

// replayExclusive drives l2 through System.accessExclusive's order for
// every miss event: the missing line is looked up; on a hit it moves up,
// leaving the L2 with its dirty bit; then the L1 victim, clean or dirty,
// moves down. The victim is the line the previous miss in the same L1
// slot brought in, and it is dirty if it was written in the L1 (the
// event's Victim) or came up dirty from the L2 (the slot's upDirty bit).
// The victim may already be in the L2 when the other L1 holds it too;
// the transfer then refreshes that copy. It returns how many of the
// L1I's and the L1D's victims were dirty only because they came up
// dirty. It serves the exclusive replays replayExclusiveNarrow cannot:
// a pass whose L1s may share a line, or an L2 that is not narrow. A
// narrow l2 takes inline probes, as in replayNarrow; any other l2 takes
// the kernel's general methods.
func (p *L1Pass) replayExclusive(ctx context.Context, l2 *l2Kernel, st *Stats) (upDirtyOut [2]uint64, err error) {
	islots := make([]exclusiveSlot, p.l1i.Lines())
	dslots := make([]exclusiveSlot, p.l1d.Lines())
	imask, dmask := cache.LineAddr(len(islots)-1), cache.LineAddr(len(dslots)-1)
	tags, valid, setMask, narrow := l2.tags, l2.valid, l2.setMask, l2.narrow()
	var hits, victims, toL2, swaps uint64
	for _, c := range p.chunks {
		if err := ctx.Err(); err != nil {
			return upDirtyOut, err
		}
		for j, ev := range c.events {
			s, l1 := &dslots[ev.Line&dmask], 1
			if c.instr[j/64]&(1<<(j%64)) != 0 {
				s, l1 = &islots[ev.Line&imask], 0
			}
			victim, hadVictim := s.line, s.valid
			written := ev.Victim != ev.Line
			dirty := written || s.upDirty
			s.line, s.valid, s.upDirty = ev.Line, true, false
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
				s.upDirty = l2.invalidate(hit)
			}
			if !hadVictim {
				continue
			}
			victims++
			if dirty {
				toL2++
				if !written {
					upDirtyOut[l1]++
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
				} else if e := ^(valid[base>>6] >> (base & 63)) & l2.wayMask; e != 0 {
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
	}
	exclusiveStats(st, l2, hits, victims, toL2, swaps)
	return upDirtyOut, nil
}

// disjoint reports whether the pass's L1I and L1D missed line ranges
// do not overlap, so that no line was ever in both L1s.
func (p *L1Pass) disjoint() bool {
	return p.icache.hi < p.dcache.lo || p.dcache.hi < p.icache.lo
}

// replayExclusiveNarrow is replayExclusive for a narrow l2 over a
// disjoint pass. Under the exclusive policy a line is in the L2 only
// while it is in no L1, as long as no line is in both L1s at once: a
// line leaves the L2 when it moves up, and enters it only as a victim,
// when it leaves its L1. In a disjoint pass no line is ever in both, so
// the victim, which is in its L1 until this event, is never in the L2:
// it is filled without a probe. The loop holds the L1 slots of both
// L1s, the L1I's then the L1D's, as a line array plus a valid and a
// came-up-dirty bitset, and keeps the L2 inline as replayNarrow does.
func (p *L1Pass) replayExclusiveNarrow(ctx context.Context, l2 *l2Kernel, st *Stats) (upDirtyOut [2]uint64, err error) {
	ni, nd := p.l1i.Lines(), p.l1d.Lines()
	lines := make([]cache.LineAddr, ni+nd)
	valid := make([]uint64, (ni+nd+63)/64)
	upDirty := make([]uint64, len(valid))
	// Indexed by the event's L1I bit: the L1D's slots, then the L1I's.
	mask := [2]cache.LineAddr{cache.LineAddr(nd - 1), cache.LineAddr(ni - 1)}
	off := [2]int{ni, 0}
	tags, l2valid, l2dirty, setMask, wayMask := l2.tags, l2.valid, l2.dirty, l2.setMask, l2.wayMask
	repl := &l2.repl
	var hits, victims, toL2, swaps uint64
	for _, c := range p.chunks {
		if err := ctx.Err(); err != nil {
			return upDirtyOut, err
		}
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
	}
	exclusiveStats(st, l2, hits, victims, toL2, swaps)
	return upDirtyOut, nil
}

// exclusiveStats completes st from an exclusive replay's counts: every
// other event missed in the L2, and only dirty L2 victims went off-chip.
func exclusiveStats(st *Stats, l2 *l2Kernel, hits, victims, toL2, swaps uint64) {
	st.L2Hits = hits
	st.L2Misses = st.L1Misses() - hits
	st.VictimsToL2 = victims
	st.WriteBacksToL2 = toL2
	st.Swaps = swaps
	st.WriteBacksOffChip = l2.dirtyOut
}

// instrument adds one replayed hierarchy's L1 and hierarchy-level counts
// to reg under the names System.Instrument uses, registering the policy
// counters the hierarchy leaves at zero, so a registry has the same
// shape whichever path filled it. upDirtyOut counts the L1I's and the
// L1D's victims that were dirty only because they came up dirty from an
// exclusive L2; the L1 caches count those as dirty write-backs too.
func (p *L1Pass) instrument(reg *obs.Registry, st Stats, upDirtyOut [2]uint64) {
	for i, l := range []struct {
		name string
		c    *dmL1
	}{{"cache_l1i", &p.icache}, {"cache_l1d", &p.dcache}} {
		reg.Counter(l.name + "_hits_total").Add(l.c.refs - l.c.misses)
		reg.Counter(l.name + "_misses_total").Add(l.c.misses)
		reg.Counter(l.name + "_evictions_total").Add(l.c.evictions)
		reg.Counter(l.name + "_dirty_writebacks_total").Add(l.c.dirtyVictims + upDirtyOut[i])
	}
	reg.Counter(metricOffChip).Add(st.OffChipFetches)
	reg.Counter(metricSwaps).Add(st.Swaps)
	reg.Counter(metricVictims).Add(st.VictimsToL2)
	reg.Counter(metricBackInv)
}
