// Package core implements the paper's primary contribution: two-level
// on-chip cache hierarchies with split direct-mapped first-level caches
// and an optional mixed second-level cache, under three replacement
// disciplines — the paper's conventional baseline, the paper's §8
// two-level *exclusive* policy, and a strictly inclusive policy (the
// multiprocessor-friendly variant §8 mentions) kept as an ablation.
//
// A System consumes a reference stream and accumulates the hit/miss
// counts that, combined with the timing (internal/timing), area
// (internal/area), and TPI (internal/perf) models, reproduce the paper's
// TPI-versus-area tradeoff curves.
package core

import (
	"fmt"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// Policy selects the two-level replacement discipline.
type Policy int

const (
	// Conventional is the paper's baseline: on an L1 miss the L2 is
	// probed; an L2 hit refills L1 (the line stays in L2), an L2 miss
	// fetches from off-chip and fills both levels. Clean L1 victims are
	// dropped; dirty ones write back to the L2 copy when one exists
	// (write traffic does not affect hit/miss behaviour or TPI, matching
	// §2.2's writes-as-reads model — it is tracked in Stats only).
	// Inclusion is neither enforced nor prevented.
	Conventional Policy = iota
	// Exclusive is the paper's §8 policy: on an L1 miss that hits in L2
	// the line *moves* from L2 to L1 while the displaced L1 line moves
	// to L2 (a swap when they map to the same L2 set); on an L2 miss the
	// line is loaded off-chip directly into L1 and the L1 victim moves
	// to L2. Data involved in an L2 mapping conflict thus lives in
	// exactly one level, raising effective capacity and associativity.
	Exclusive
	// Inclusive enforces strict inclusion (Baer–Wang): every L1 line is
	// also in L2, and an L2 eviction back-invalidates the line from both
	// L1 caches. An ablation for the multiprocessor note in §8.
	Inclusive
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Conventional:
		return "conventional"
	case Exclusive:
		return "exclusive"
	case Inclusive:
		return "inclusive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats aggregates hierarchy-level counts from a simulation run.
type Stats struct {
	InstrRefs uint64
	DataRefs  uint64

	L1IHits   uint64
	L1IMisses uint64
	L1DHits   uint64
	L1DMisses uint64

	// L2Hits and L2Misses count probes of the second-level cache (zero
	// in a single-level system, where every L1 miss is an OffChip fetch).
	L2Hits   uint64
	L2Misses uint64

	// OffChipFetches counts lines brought in from off-chip: L2 misses in
	// a two-level system, L1 misses in a single-level one.
	OffChipFetches uint64

	// WriteRefs counts store references (a subset of DataRefs).
	WriteRefs uint64

	// WriteThroughs counts stores forwarded past the L1 under the
	// write-through mode (every store; the destination is the L2 when
	// present, otherwise off-chip).
	WriteThroughs uint64

	// WriteBacksToL2 counts dirty L1 victims absorbed by the second
	// level (updating a resident copy under the conventional/inclusive
	// policies, or travelling with the victim transfer under the
	// exclusive policy).
	WriteBacksToL2 uint64
	// WriteBacksOffChip counts dirty lines whose data had to leave the
	// chip: dirty L1 victims with no L2 home and dirty L2 victims.
	WriteBacksOffChip uint64

	// Swaps counts exclusive move-ups for which the L1 victim landed in
	// the same L2 set the requested line came from (a true swap,
	// Figure 21-a).
	Swaps uint64
	// VictimsToL2 counts L1 victim lines transferred into L2 under the
	// exclusive policy.
	VictimsToL2 uint64
	// BackInvalidations counts L1 lines invalidated to preserve strict
	// inclusion.
	BackInvalidations uint64
}

// Refs reports the total number of references simulated.
func (s Stats) Refs() uint64 { return s.InstrRefs + s.DataRefs }

// L1Misses reports combined first-level misses.
func (s Stats) L1Misses() uint64 { return s.L1IMisses + s.L1DMisses }

// L1MissRate reports combined first-level misses per reference.
func (s Stats) L1MissRate() float64 {
	if s.Refs() == 0 {
		return 0
	}
	return float64(s.L1Misses()) / float64(s.Refs())
}

// GlobalMissRate reports off-chip fetches per reference — the miss rate
// the off-chip system sees.
func (s Stats) GlobalMissRate() float64 {
	if s.Refs() == 0 {
		return 0
	}
	return float64(s.OffChipFetches) / float64(s.Refs())
}

// LocalL2MissRate reports the fraction of L2 probes that missed.
func (s Stats) LocalL2MissRate() float64 {
	if n := s.L2Hits + s.L2Misses; n > 0 {
		return float64(s.L2Misses) / float64(n)
	}
	return 0
}

// WriteMode selects how stores interact with the first-level data cache.
type WriteMode int

const (
	// WriteBackAllocate is the paper's §2.2 model: write-allocate,
	// fetch-on-write, dirty lines written back on eviction. Stores
	// behave exactly like loads for hit/miss purposes.
	WriteBackAllocate WriteMode = iota
	// WriteThroughNoAllocate is the classic alternative (the ablation of
	// the §2.2 choice): store hits update the cache and write through;
	// store misses do NOT allocate — the data goes straight down. Store
	// misses therefore do not fetch lines, and no line is ever dirty.
	WriteThroughNoAllocate
)

// String names the write mode.
func (m WriteMode) String() string {
	switch m {
	case WriteBackAllocate:
		return "write-back/allocate"
	case WriteThroughNoAllocate:
		return "write-through/no-allocate"
	default:
		return fmt.Sprintf("WriteMode(%d)", int(m))
	}
}

// Config describes a full on-chip hierarchy.
type Config struct {
	// L1 describes each of the split first-level caches. The paper
	// restricts L1 to equal-size direct-mapped I and D caches; this
	// struct allows other shapes for ablations.
	L1I, L1D cache.Config
	// L2 describes the mixed second-level cache. A zero-size L2 means a
	// single-level system.
	L2 cache.Config
	// Policy selects the two-level discipline (ignored when single-level).
	Policy Policy
	// Writes selects the store handling (default: the paper's
	// write-back, write-allocate model).
	Writes WriteMode
}

// TwoLevel reports whether the hierarchy has a second-level cache.
func (c Config) TwoLevel() bool { return c.L2.Size > 0 }

// Validate reports whether the configuration is simulatable.
func (c Config) Validate() error {
	if err := c.L1I.Validate(); err != nil {
		return fmt.Errorf("L1I: %w", err)
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if c.L1I.LineSize != c.L1D.LineSize {
		return fmt.Errorf("core: L1I line %dB != L1D line %dB", c.L1I.LineSize, c.L1D.LineSize)
	}
	if c.TwoLevel() {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("L2: %w", err)
		}
		if c.L2.LineSize != c.L1I.LineSize {
			return fmt.Errorf("core: L2 line %dB != L1 line %dB", c.L2.LineSize, c.L1I.LineSize)
		}
	}
	return nil
}

// String renders the hierarchy like the paper's "x:y" labels (sizes in
// KB per L1 cache and for the L2), e.g. "8:64 exclusive 4-way".
func (c Config) String() string {
	l1 := c.L1I.Size >> 10
	if !c.TwoLevel() {
		return fmt.Sprintf("%d:0", l1)
	}
	return fmt.Sprintf("%d:%d %s %s", l1, c.L2.Size>>10, c.Policy, wayLabel(c.L2.Assoc))
}

func wayLabel(assoc int) string {
	if assoc == 1 {
		return "DM"
	}
	return fmt.Sprintf("%d-way", assoc)
}

// System simulates one hierarchy. It is not safe for concurrent use.
type System struct {
	cfg Config
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache // nil for single-level
	st  Stats

	// Registry instruments (nil when uninstrumented; see Instrument).
	mSwaps, mVictims, mBackInv, mOffChip *obs.Counter
}

// NewSystem builds a hierarchy simulator. It is the trusted-input
// wrapper over TryNewSystem kept for already-validated configurations
// (package-internal invariants, literals in tests and examples): it
// panics on an invalid configuration. Untrusted input goes through
// TryNewSystem or Config.Validate.
func NewSystem(cfg Config) *System {
	s, err := TryNewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// TryNewSystem builds a hierarchy simulator, returning a descriptive
// error for an invalid configuration instead of panicking.
func TryNewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg: cfg,
		l1i: cache.New(cfg.L1I),
		l1d: cache.New(cfg.L1D),
	}
	if cfg.TwoLevel() {
		s.l2 = cache.New(cfg.L2)
	}
	return s, nil
}

// Instrument wires the hierarchy's whole-run counters — and those of its
// member caches — into a metrics registry. A nil registry leaves the
// system effectively uninstrumented (nil obs instruments are no-ops), so
// callers thread whatever they were given without checking. Counters
// aggregate across every system instrumented on the same registry, which
// is the sweep-wide view the observability endpoints serve.
func (s *System) Instrument(r *obs.Registry) {
	s.l1i.Instrument(r, "cache_l1i")
	s.l1d.Instrument(r, "cache_l1d")
	if s.l2 != nil {
		s.l2.Instrument(r, "cache_l2")
	}
	s.mSwaps = r.Counter(metricSwaps)
	s.mVictims = r.Counter(metricVictims)
	s.mBackInv = r.Counter(metricBackInv)
	s.mOffChip = r.Counter(metricOffChip)
}

// Hierarchy-level counter names (System.Instrument, Replayed.Instrument).
const (
	metricSwaps   = "core_exclusive_swaps_total"
	metricVictims = "core_victim_transfers_total"
	metricBackInv = "core_back_invalidations_total"
	metricOffChip = "core_offchip_fetches_total"
)

// Config returns the hierarchy configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns the counters accumulated so far.
func (s *System) Stats() Stats { return s.st }

// L1I exposes the instruction cache (for inspection in tests/examples).
func (s *System) L1I() *cache.Cache { return s.l1i }

// L1D exposes the data cache.
func (s *System) L1D() *cache.Cache { return s.l1d }

// L2 exposes the second-level cache, or nil for a single-level system.
func (s *System) L2() *cache.Cache { return s.l2 }

// ObserveLevels attaches demand-access observers to the three levels
// (nil skips a level; the l2 observer is ignored on a single-level
// system). Observers are shadow analyses — see cache.AccessObserver for
// the non-perturbation contract.
func (s *System) ObserveLevels(l1i, l1d, l2 cache.AccessObserver) {
	s.l1i.Observe(l1i)
	s.l1d.Observe(l1d)
	if s.l2 != nil {
		s.l2.Observe(l2)
	}
}

// Access simulates one reference through the hierarchy.
func (s *System) Access(r trace.Ref) {
	var l1 *cache.Cache
	write := false
	switch r.Kind {
	case trace.Instr:
		s.st.InstrRefs++
		l1 = s.l1i
	case trace.Write:
		s.st.DataRefs++
		s.st.WriteRefs++
		l1 = s.l1d
		write = true
	default:
		s.st.DataRefs++
		l1 = s.l1d
	}

	if write && s.cfg.Writes == WriteThroughNoAllocate {
		s.accessWriteThrough(l1, cache.Addr(r.Addr))
		return
	}

	if s.cfg.Policy == Exclusive && s.l2 != nil {
		s.accessExclusive(r, l1, write)
		return
	}

	hit, victim := s.accessL1(l1, cache.Addr(r.Addr), write)
	s.countL1(r.Kind, hit)
	s.retireL1Victim(victim)
	if hit {
		return
	}
	if s.l2 == nil {
		s.st.OffChipFetches++
		s.mOffChip.Inc()
		return
	}
	hit, v2 := s.l2.Access(cache.Addr(r.Addr))
	if hit {
		s.st.L2Hits++
		return
	}
	s.st.L2Misses++
	s.st.OffChipFetches++
	s.mOffChip.Inc()
	if v2.Valid && v2.Dirty {
		s.st.WriteBacksOffChip++
	}
	if s.cfg.Policy == Inclusive && v2.Valid {
		// Strict inclusion: the displaced L2 line may not remain in
		// either L1 cache, and a dirty upper copy must be flushed.
		s.backInvalidate(s.l1i, v2.Line)
		s.backInvalidate(s.l1d, v2.Line)
	}
}

// accessWriteThrough handles a store under the write-through,
// no-write-allocate mode: a hit updates the (never-dirty) L1 copy, a
// miss allocates nothing, and the data always continues to the next
// level. Under the conventional/inclusive policies a resident L2 copy is
// updated in place; under the exclusive policy (and with no L2 copy) the
// store continues off-chip. Store traffic is counted in WriteThroughs;
// it never triggers a line fetch, so it contributes no OffChipFetches.
func (s *System) accessWriteThrough(l1 *cache.Cache, a cache.Addr) {
	hit := l1.Lookup(a)
	s.countL1(trace.Write, hit)
	s.st.WriteThroughs++
	if s.l2 != nil && s.cfg.Policy != Exclusive && s.l2.MarkDirtyLine(s.l2.Line(a)) {
		// Absorbed by the L2 copy; its eventual eviction writes back.
		s.st.WriteBacksToL2++
		return
	}
	s.st.WriteBacksOffChip++
}

// accessL1 issues a read or write demand reference to an L1 cache.
func (s *System) accessL1(l1 *cache.Cache, a cache.Addr, write bool) (bool, cache.Victim) {
	if write {
		return l1.AccessWrite(a)
	}
	return l1.Access(a)
}

// retireL1Victim handles a (possibly dirty) line displaced from an L1
// under the non-exclusive policies: dirty data is written back to the
// L2's copy when one exists, otherwise it leaves the chip.
func (s *System) retireL1Victim(v cache.Victim) {
	if !v.Valid || !v.Dirty {
		return
	}
	if s.l2 != nil && s.l2.MarkDirtyLine(v.Line) {
		s.st.WriteBacksToL2++
		return
	}
	s.st.WriteBacksOffChip++
}

// backInvalidate purges l from an L1 to preserve strict inclusion,
// flushing dirty data off-chip.
func (s *System) backInvalidate(l1 *cache.Cache, l cache.LineAddr) {
	present, dirty := l1.InvalidateLineState(l)
	if present {
		s.st.BackInvalidations++
		s.mBackInv.Inc()
	}
	if dirty {
		s.st.WriteBacksOffChip++
	}
}

// accessExclusive implements the §8 policy for one reference.
func (s *System) accessExclusive(r trace.Ref, l1 *cache.Cache, write bool) {
	addr := cache.Addr(r.Addr)
	hit, victim := s.accessL1(l1, addr, write)
	s.countL1(r.Kind, hit)
	if hit {
		return
	}
	reqLine := l1.Line(addr)
	if s.l2.Lookup(addr) {
		s.st.L2Hits++
		// Move (not copy) the line up: it leaves L2, its dirty state
		// travelling with it...
		if _, dirty := s.l2.InvalidateLineState(reqLine); dirty {
			l1.MarkDirtyLine(reqLine)
		}
		// ...and the L1 victim moves down. When both map to the same L2
		// set this is the paper's swap (Figure 21-a).
		s.victimToL2(victim, reqLine, true)
		return
	}
	s.st.L2Misses++
	s.st.OffChipFetches++
	s.mOffChip.Inc()
	// The requested line is loaded from off-chip directly into L1
	// (already allocated by the L1 access); only the victim enters L2.
	s.victimToL2(victim, reqLine, false)
}

// victimToL2 transfers an exclusive L1 victim into the second level,
// tracking swaps, write-back traffic, and dirty L2 victims.
func (s *System) victimToL2(victim cache.Victim, reqLine cache.LineAddr, l2Hit bool) {
	if !victim.Valid {
		return
	}
	s.st.VictimsToL2++
	s.mVictims.Inc()
	if victim.Dirty {
		s.st.WriteBacksToL2++
	}
	if l2Hit && s.sameL2Set(victim.Line, reqLine) {
		s.st.Swaps++
		s.mSwaps.Inc()
	}
	if v2 := s.l2.InsertLineState(victim.Line, victim.Dirty); v2.Valid && v2.Dirty {
		s.st.WriteBacksOffChip++
	}
}

// sameL2Set reports whether two lines index the same L2 set.
func (s *System) sameL2Set(a, b cache.LineAddr) bool {
	mask := cache.LineAddr(s.cfg.L2.Sets() - 1)
	return a&mask == b&mask
}

// countL1 updates the per-kind L1 counters.
func (s *System) countL1(k trace.Kind, hit bool) {
	switch {
	case k == trace.Instr && hit:
		s.st.L1IHits++
	case k == trace.Instr:
		s.st.L1IMisses++
	case hit:
		s.st.L1DHits++
	default:
		s.st.L1DMisses++
	}
}

// Run drains an entire reference stream through the hierarchy and
// returns the resulting statistics.
func (s *System) Run(st trace.Stream) Stats {
	buf := make([]trace.Ref, trace.BatchRefs)
	for {
		n := trace.Fill(st, buf)
		for _, r := range buf[:n] {
			s.Access(r)
		}
		if n < len(buf) {
			return s.st
		}
	}
}

// UniqueOnChipLines reports the number of distinct lines resident across
// all on-chip caches — the quantity exclusive caching maximizes (§8: a
// direct-mapped exclusive pair can hold up to 2x+y unique lines).
func (s *System) UniqueOnChipLines() int {
	seen := make(map[cache.LineAddr]struct{})
	add := func(l cache.LineAddr) { seen[l] = struct{}{} }
	s.l1i.VisitLines(add)
	s.l1d.VisitLines(add)
	if s.l2 != nil {
		s.l2.VisitLines(add)
	}
	return len(seen)
}

// DuplicatedLines reports how many resident L2 lines are also resident in
// an L1 cache — the duplication exclusive caching eliminates.
func (s *System) DuplicatedLines() int {
	if s.l2 == nil {
		return 0
	}
	dup := 0
	s.l2.VisitLines(func(l cache.LineAddr) {
		if s.l1i.ContainsLine(l) || s.l1d.ContainsLine(l) {
			dup++
		}
	})
	return dup
}

// ResetStats zeroes the hierarchy and per-cache counters without touching
// cache contents — measure steady state by warming up, resetting, then
// running the measurement window.
func (s *System) ResetStats() {
	s.st = Stats{}
	s.l1i.ResetStats()
	s.l1d.ResetStats()
	if s.l2 != nil {
		s.l2.ResetStats()
	}
}
