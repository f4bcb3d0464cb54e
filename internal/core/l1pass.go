package core

import (
	"context"
	"fmt"
	"math/bits"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// This file is the L1-once kernel. Under the conventional policy with
// write-back, write-allocate stores, an L1 never reads L2 state: its hits,
// misses, victims and dirty bits are the same whatever sits below it. So
// one pass of a trace through a split direct-mapped L1 pair (RecordL1)
// yields the L1 counters of every such hierarchy with those L1s, plus the
// stream of L1 misses the L2 sees; each L2 is then simulated over that
// stream alone (L1Pass.Replay). DESIGN.md "L1-once replay" states the
// exactness argument.

// ctxCheckInterval is how many references (or miss events) the kernel
// loops run between checks of their context.
const ctxCheckInterval = 8192

// ReplayEligible reports whether an L1Pass can stand in for System.Run
// on cfg: both L1s are direct-mapped, stores write back and allocate, and
// the hierarchy is single-level or conventional. Exclusive and inclusive
// hierarchies feed L2 state back into the L1s (dirty move-ups,
// back-invalidations), and set-associative L1s take the general path.
func ReplayEligible(cfg Config) bool {
	return cfg.L1I.Assoc == 1 && cfg.L1D.Assoc == 1 && cfg.Writes == WriteBackAllocate &&
		(!cfg.TwoLevel() || cfg.Policy == Conventional)
}

// missEvent is one L1 miss, in trace order: the line that missed and the
// dirty line it displaced. Victim equals Line when the miss displaced no
// dirty line; a victim is never the line that missed, so the encoding is
// unambiguous.
type missEvent struct {
	Line, Victim cache.LineAddr
}

// dmL1 is a direct-mapped L1 specialised for the pass, with its counters.
type dmL1 struct {
	lines                                 []dmLine
	mask                                  uint64
	refs, misses, evictions, dirtyVictims uint64
}

type dmLine struct {
	tag          cache.LineAddr
	valid, dirty bool
}

// L1Pass records one trace through a split direct-mapped L1 pair: the L1
// counters and the miss stream every L2 below those L1s sees. It is
// immutable once recorded, so concurrent Replays may share it.
type L1Pass struct {
	l1i, l1d  cache.Config
	st        Stats // reference and L1 counters
	icache    dmL1  // L1I counters (the lines are dropped after the pass)
	dcache    dmL1  // L1D counters
	events    []missEvent
	lineShift uint
}

// RecordL1 runs refs through cfg's split L1s, which must be
// direct-mapped; cfg's L2, policy and write mode are ignored. It checks
// ctx every ctxCheckInterval references and returns ctx's error once it
// is done.
func RecordL1(ctx context.Context, cfg Config, refs []trace.Ref) (*L1Pass, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.L1I.Assoc != 1 || cfg.L1D.Assoc != 1 {
		return nil, fmt.Errorf("core: L1 pass needs direct-mapped L1s, got %s and %s", cfg.L1I, cfg.L1D)
	}
	p := &L1Pass{
		l1i: cfg.L1I, l1d: cfg.L1D,
		icache:    newDML1(cfg.L1I),
		dcache:    newDML1(cfg.L1D),
		lineShift: uint(bits.TrailingZeros(uint(cfg.L1I.LineSize))),
	}
	var writes uint64
	for i, r := range refs {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := &p.dcache
		if r.Kind == trace.Instr {
			c = &p.icache
		}
		write := r.Kind == trace.Write
		if write {
			writes++
		}
		c.refs++
		l := cache.LineAddr(r.Addr >> p.lineShift)
		e := &c.lines[uint64(l)&c.mask]
		if e.valid && e.tag == l {
			e.dirty = e.dirty || write
			continue
		}
		c.misses++
		ev := missEvent{Line: l, Victim: l}
		if e.valid {
			c.evictions++
			if e.dirty {
				c.dirtyVictims++
				ev.Victim = e.tag
			}
		}
		*e = dmLine{tag: l, valid: true, dirty: write}
		p.events = append(p.events, ev)
	}
	p.icache.lines, p.dcache.lines = nil, nil
	p.st = Stats{
		InstrRefs: p.icache.refs,
		DataRefs:  p.dcache.refs,
		WriteRefs: writes,
		L1IHits:   p.icache.refs - p.icache.misses,
		L1IMisses: p.icache.misses,
		L1DHits:   p.dcache.refs - p.dcache.misses,
		L1DMisses: p.dcache.misses,
	}
	return p, nil
}

func newDML1(c cache.Config) dmL1 {
	return dmL1{lines: make([]dmLine, c.Lines()), mask: uint64(c.Lines() - 1)}
}

// Replay returns the statistics System.Run would return for cfg over the
// recorded trace, field for field. cfg must be ReplayEligible and have
// the pass's L1s. A two-level cfg drives a fresh L2 through the
// conventional operation order for every miss event: the dirty victim
// writes back into the L2's copy if there is one (otherwise off-chip),
// then the missing line is looked up, and filled on a miss. A
// single-level cfg needs no L2: every L1 miss is an off-chip fetch and
// every dirty victim an off-chip write-back.
//
// reg, when non-nil, receives the counters System.Instrument would have
// accumulated. Replay checks ctx every ctxCheckInterval events.
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
		p.instrument(reg, st)
		return st, nil
	}
	l2, err := cache.TryNew(cfg.L2)
	if err != nil {
		return Stats{}, err
	}
	l2.Instrument(reg, "cache_l2")
	for i, ev := range p.events {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return Stats{}, err
			}
		}
		if ev.Victim != ev.Line {
			if l2.MarkDirtyLine(ev.Victim) {
				st.WriteBacksToL2++
			} else {
				st.WriteBacksOffChip++
			}
		}
		if l2.Lookup(cache.Addr(ev.Line << p.lineShift)) {
			st.L2Hits++
			continue
		}
		st.L2Misses++
		if v := l2.InsertLine(ev.Line); v.Valid && v.Dirty {
			st.WriteBacksOffChip++
		}
	}
	st.OffChipFetches = st.L2Misses
	p.instrument(reg, st)
	return st, nil
}

// instrument adds one replayed hierarchy's L1 and off-chip counts to reg
// under the names System.Instrument uses, and registers the policy
// counters a conventional hierarchy leaves at zero, so a registry has
// the same shape whichever path filled it.
func (p *L1Pass) instrument(reg *obs.Registry, st Stats) {
	for _, l := range []struct {
		name string
		c    *dmL1
	}{{"cache_l1i", &p.icache}, {"cache_l1d", &p.dcache}} {
		reg.Counter(l.name + "_hits_total").Add(l.c.refs - l.c.misses)
		reg.Counter(l.name + "_misses_total").Add(l.c.misses)
		reg.Counter(l.name + "_evictions_total").Add(l.c.evictions)
		reg.Counter(l.name + "_dirty_writebacks_total").Add(l.c.dirtyVictims)
	}
	reg.Counter(metricOffChip).Add(st.OffChipFetches)
	reg.Counter(metricSwaps)
	reg.Counter(metricVictims)
	reg.Counter(metricBackInv)
}
