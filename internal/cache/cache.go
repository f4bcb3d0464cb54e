// Package cache implements the single-cache substrate used by the
// two-level on-chip caching study: physically-addressed, lockup,
// direct-mapped or set-associative arrays with 16-byte lines and
// pseudo-random replacement (the configuration the paper fixes in §2.1),
// plus LRU and FIFO replacement for ablations.
//
// A Cache tracks only line presence (tags), not contents: the study is
// trace-driven and write traffic is modeled as read traffic
// (write-allocate, fetch-on-write; paper §2.2), so hit/miss behaviour is
// fully determined by the tag state.
package cache

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"twolevel/internal/obs"
)

// Addr is a physical byte address.
type Addr uint64

// LineAddr is an address shifted right by the line-size log; two addresses
// on the same cache line have equal LineAddr.
type LineAddr uint64

// ReplacementPolicy selects how a victim way is chosen in a set-associative
// cache. Direct-mapped caches have no choice and ignore the policy.
type ReplacementPolicy int

const (
	// Random is pseudo-random replacement via a 16-bit LFSR, the policy
	// the paper uses for its set-associative second-level caches.
	Random ReplacementPolicy = iota
	// LRU replaces the least-recently-used way.
	LRU
	// FIFO replaces ways in insertion order.
	FIFO
)

// String returns the policy name.
func (p ReplacementPolicy) String() string {
	switch p {
	case Random:
		return "random"
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// Config describes one cache array.
type Config struct {
	// Size is the capacity in bytes. Must be a power of two.
	Size int64
	// LineSize is the line size in bytes. Must be a power of two.
	// The paper fixes 16-byte lines.
	LineSize int
	// Assoc is the set associativity. 1 means direct-mapped. It must
	// divide Size/LineSize. Use Lines() for full associativity.
	Assoc int
	// Policy selects the replacement policy for Assoc > 1.
	Policy ReplacementPolicy
}

// Lines reports the total number of lines the cache holds.
func (c Config) Lines() int { return int(c.Size) / c.LineSize }

// Sets reports the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0:
		return fmt.Errorf("cache: size %d must be positive", c.Size)
	case c.Size&(c.Size-1) != 0:
		return fmt.Errorf("cache: size %d must be a power of two", c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineSize)
	case int64(c.LineSize) > c.Size:
		return fmt.Errorf("cache: line size %d exceeds cache size %d", c.LineSize, c.Size)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	case c.Lines()%c.Assoc != 0:
		return fmt.Errorf("cache: associativity %d does not divide %d lines", c.Assoc, c.Lines())
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// String renders the configuration like "32KB/16B/4-way(random)".
func (c Config) String() string {
	way := "DM"
	if c.Assoc > 1 {
		way = fmt.Sprintf("%d-way(%s)", c.Assoc, c.Policy)
	}
	return fmt.Sprintf("%s/%dB/%s", FormatSize(c.Size), c.LineSize, way)
}

// FormatSize renders a byte count as 1KB, 256KB, 1MB, or plain bytes.
func FormatSize(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Stats counts accesses to a single cache.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate reports Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate reports Hits/Accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// String renders the counters with the derived hit rate, e.g.
// "102400 accesses, 1234 misses (hit rate 98.79%)".
func (s Stats) String() string {
	return fmt.Sprintf("%d accesses, %d misses (hit rate %.2f%%)",
		s.Accesses, s.Misses, 100*s.HitRate())
}

// MarshalJSON emits the counters together with the derived rates, so
// serialized stats are directly plottable.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Accesses uint64  `json:"accesses"`
		Hits     uint64  `json:"hits"`
		Misses   uint64  `json:"misses"`
		HitRate  float64 `json:"hit_rate"`
		MissRate float64 `json:"miss_rate"`
	}{s.Accesses, s.Hits, s.Misses, s.HitRate(), s.MissRate()})
}

// Victim describes a line displaced by an insertion.
type Victim struct {
	// Line is the line address of the displaced line.
	Line LineAddr
	// Valid reports whether a line was actually displaced (false when
	// the insertion filled an empty way).
	Valid bool
	// Dirty reports whether the displaced line held unwritten-back
	// store data (write-back traffic extension).
	Dirty bool
}

// Cache is a tag-only cache model. It is not safe for concurrent use.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int

	// tags[set*assoc+way] holds the line address; valid bit packed
	// separately to allow line address 0.
	tags  []LineAddr
	valid []bool
	dirty []bool

	repl Replacement

	stats Stats

	// Registry instruments (nil when uninstrumented: every method on a
	// nil obs instrument is a no-op, so the hot path pays one predictable
	// nil-check per counter).
	mHits, mMisses, mEvictions, mDirtyWB *obs.Counter

	// observer, when set, sees every demand reference (nil when the
	// cache is unobserved; the hot path pays one nil-check).
	observer AccessObserver
}

// AccessObserver receives every demand reference a cache serves — the
// Access/AccessWrite/Lookup stream, in order, after the cache's own
// statistics are updated. Observers must not call back into the cache:
// they are shadow analyses (e.g. internal/analyze's 3C classifier) that
// may read but never perturb primary state.
type AccessObserver interface {
	// ObserveAccess reports one demand reference to line l and whether
	// the primary cache hit it.
	ObserveAccess(l LineAddr, hit bool)
}

// New builds a cache from cfg. It is the trusted-input wrapper over
// TryNew kept for configurations the caller has already validated
// (package-internal invariants, literals in tests and examples): it
// panics on an invalid configuration. Untrusted input goes through
// TryNew or Config.Validate.
func New(cfg Config) *Cache {
	c, err := TryNew(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TryNew builds a cache from cfg, returning a descriptive error for an
// invalid configuration instead of panicking.
func TryNew(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.Lines()
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
		tags:      make([]LineAddr, lines),
		valid:     make([]bool, lines),
		dirty:     make([]bool, lines),
		repl:      NewReplacement(cfg),
	}, nil
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Instrument wires the cache's whole-run counters into a metrics
// registry under the given name prefix (e.g. "cache_l1d" yields
// "cache_l1d_hits_total"). A nil registry hands out nil (no-op)
// instruments, so calling Instrument(nil, ...) keeps the cache
// effectively uninstrumented. Counters aggregate across every cache
// instrumented under the same prefix, which is what sweep-level
// dashboards want; per-cache numbers stay available via Stats.
func (c *Cache) Instrument(r *obs.Registry, name string) {
	c.mHits = r.Counter(name + "_hits_total")
	c.mMisses = r.Counter(name + "_misses_total")
	c.mEvictions = r.Counter(name + "_evictions_total")
	c.mDirtyWB = r.Counter(name + "_dirty_writebacks_total")
}

// Observe attaches an access observer (nil detaches). The observer sees
// only demand references (Access, AccessWrite, Lookup) — never refills,
// victim transfers, or invalidations — so its view is exactly the
// reference stream the cache's hit/miss statistics describe.
func (c *Cache) Observe(o AccessObserver) { c.observer = o }

// Stats returns the access counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Line maps a byte address to its line address.
func (c *Cache) Line(a Addr) LineAddr { return LineAddr(uint64(a) >> c.lineShift) }

// set returns the set index for a line address.
func (c *Cache) set(l LineAddr) int { return int(uint64(l) & c.setMask) }

// findWay returns the way holding l within set, or -1.
func (c *Cache) findWay(set int, l LineAddr) int {
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == l {
			return w
		}
	}
	return -1
}

// Contains reports whether the line holding a is resident, with no side
// effects on replacement state or statistics.
func (c *Cache) Contains(a Addr) bool {
	l := c.Line(a)
	return c.findWay(c.set(l), l) >= 0
}

// ContainsLine is Contains for a pre-computed line address.
func (c *Cache) ContainsLine(l LineAddr) bool {
	return c.findWay(c.set(l), l) >= 0
}

// Access performs a demand read reference to address a: on a hit it
// updates replacement state and returns true; on a miss it allocates the
// line, returns false, and reports the victim (if any) through v.
func (c *Cache) Access(a Addr) (hit bool, v Victim) {
	return c.access(a, false)
}

// AccessWrite performs a demand store reference: identical hit/miss and
// allocation behaviour to Access (write-allocate, fetch-on-write, the
// paper's §2.2 model) but marks the line dirty.
func (c *Cache) AccessWrite(a Addr) (hit bool, v Victim) {
	return c.access(a, true)
}

func (c *Cache) access(a Addr, write bool) (hit bool, v Victim) {
	l := c.Line(a)
	set := c.set(l)
	c.stats.Accesses++
	if w := c.findWay(set, l); w >= 0 {
		c.stats.Hits++
		c.mHits.Inc()
		if c.observer != nil {
			c.observer.ObserveAccess(l, true)
		}
		c.repl.Touch(set, w)
		if write {
			c.dirty[set*c.assoc+w] = true
		}
		return true, Victim{}
	}
	c.stats.Misses++
	c.mMisses.Inc()
	if c.observer != nil {
		c.observer.ObserveAccess(l, false)
	}
	return false, c.insertState(set, l, write)
}

// Lookup performs a demand reference that does NOT allocate on miss:
// replacement state is updated on hit and statistics are counted either
// way. It is the probe half of an exclusive-hierarchy access.
func (c *Cache) Lookup(a Addr) bool {
	l := c.Line(a)
	set := c.set(l)
	c.stats.Accesses++
	if w := c.findWay(set, l); w >= 0 {
		c.stats.Hits++
		c.mHits.Inc()
		if c.observer != nil {
			c.observer.ObserveAccess(l, true)
		}
		c.repl.Touch(set, w)
		return true
	}
	c.stats.Misses++
	c.mMisses.Inc()
	if c.observer != nil {
		c.observer.ObserveAccess(l, false)
	}
	return false
}

// Insert places the line holding a into the cache without counting a
// demand access (used for refills and victim transfers). If the line is
// already resident the call is a no-op. The displaced line, if any, is
// returned.
func (c *Cache) Insert(a Addr) Victim {
	return c.InsertLine(c.Line(a))
}

// InsertLine is Insert for a pre-computed line address.
func (c *Cache) InsertLine(l LineAddr) Victim {
	return c.InsertLineState(l, false)
}

// InsertLineState is InsertLine with an explicit dirty state, used when
// a victim transfer carries unwritten-back data. Inserting a dirty line
// over an already-resident clean copy dirties it.
func (c *Cache) InsertLineState(l LineAddr, dirty bool) Victim {
	set := c.set(l)
	if w := c.findWay(set, l); w >= 0 {
		c.repl.Touch(set, w)
		if dirty {
			c.dirty[set*c.assoc+w] = true
		}
		return Victim{}
	}
	return c.insertState(set, l, dirty)
}

// Invalidate removes the line holding a if resident, reporting whether a
// line was removed. Used for exclusive move-ups and back-invalidation.
func (c *Cache) Invalidate(a Addr) bool {
	return c.InvalidateLine(c.Line(a))
}

// InvalidateLine is Invalidate for a pre-computed line address.
func (c *Cache) InvalidateLine(l LineAddr) bool {
	present, _ := c.InvalidateLineState(l)
	return present
}

// InvalidateLineState removes the line if resident, reporting whether it
// was present and whether it was dirty (the caller owns any write-back).
func (c *Cache) InvalidateLineState(l LineAddr) (present, dirty bool) {
	set := c.set(l)
	if w := c.findWay(set, l); w >= 0 {
		i := set*c.assoc + w
		c.valid[i] = false
		d := c.dirty[i]
		c.dirty[i] = false
		return true, d
	}
	return false, false
}

// MarkDirtyLine marks a resident line dirty (a write-back from an upper
// level updating this level's copy), reporting whether it was resident.
func (c *Cache) MarkDirtyLine(l LineAddr) bool {
	set := c.set(l)
	if w := c.findWay(set, l); w >= 0 {
		c.dirty[set*c.assoc+w] = true
		return true
	}
	return false
}

// DirtyLines reports the number of resident dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for i, ok := range c.valid {
		if ok && c.dirty[i] {
			n++
		}
	}
	return n
}

// Flush invalidates every line and leaves statistics untouched.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
}

// ResidentLines returns the number of valid lines currently held.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// VisitLines calls fn for every valid resident line, in set order.
func (c *Cache) VisitLines(fn func(LineAddr)) {
	for i, ok := range c.valid {
		if ok {
			fn(c.tags[i])
		}
	}
}

// insertState allocates l in set with the given dirty state, choosing a
// victim way per policy.
func (c *Cache) insertState(set int, l LineAddr, dirty bool) Victim {
	base := set * c.assoc
	// Prefer an invalid way.
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+w] {
			c.tags[base+w] = l
			c.valid[base+w] = true
			c.dirty[base+w] = dirty
			c.repl.Filled(set, w)
			return Victim{}
		}
	}
	w := c.repl.Victim(set)
	old := c.tags[base+w]
	oldDirty := c.dirty[base+w]
	c.tags[base+w] = l
	c.dirty[base+w] = dirty
	c.repl.Touch(set, w)
	c.mEvictions.Inc()
	if oldDirty {
		c.mDirtyWB.Inc()
	}
	return Victim{Line: old, Valid: true, Dirty: oldDirty}
}

// Replacement is the replacement state of one cache array: the LRU
// stamp of every way, the FIFO fill pointer of every set and the random
// policy's LFSR. Its methods are the one home of the replacement rules.
// Cache keeps one, and so does any flat copy of a cache's state (the
// L1-once replay's L2 kernel in internal/core), so a set replaces the
// same way whichever of them simulates it. Both fill a set's
// lowest-numbered empty way first, each finding it in its own layout,
// and ask Victim only when the set is full. The zero value is not
// usable; call NewReplacement.
type Replacement struct {
	assoc  int
	policy ReplacementPolicy
	stamps []uint64 // LRU: the tick of each way's last use, set-major
	fifo   []uint32 // FIFO: the next way each set replaces
	tick   uint64
	lfsr   uint32
}

// NewReplacement returns the state of an empty cache of configuration c,
// which must be valid.
func NewReplacement(c Config) Replacement {
	r := Replacement{assoc: c.Assoc, policy: c.Policy, lfsr: 0xACE1} // non-zero LFSR seed
	switch c.Policy {
	case LRU:
		r.stamps = make([]uint64, c.Lines())
	case FIFO:
		r.fifo = make([]uint32, c.Sets())
	}
	return r
}

// Touch records a use of way w of set (a hit, or a fill). Only LRU
// keeps uses.
func (r *Replacement) Touch(set, w int) {
	if r.stamps != nil {
		r.tick++
		r.stamps[set*r.assoc+w] = r.tick
	}
}

// Filled records a fill of way w of set, which was empty. The FIFO
// pointer is only meaningful once the set is full; pointing it at the
// way after the fill keeps it consistent with filling in way order.
func (r *Replacement) Filled(set, w int) {
	r.Touch(set, w)
	if r.fifo != nil {
		r.fifo[set] = uint32((w + 1) & (r.assoc - 1))
	}
}

// Victim picks the way to replace in set, which is full, and steps the
// policy's state: the oldest stamp under LRU (the first way on a tie),
// the fill pointer under FIFO, and the next LFSR state, masked to the
// ways, under Random. A direct-mapped set has no choice and steps
// nothing. The caller records the fill with Touch.
func (r *Replacement) Victim(set int) int {
	if r.assoc == 1 {
		return 0
	}
	switch r.policy {
	case LRU:
		s := r.stamps[set*r.assoc : (set+1)*r.assoc]
		w := 0
		for i, t := range s {
			if t < s[w] {
				w = i
			}
		}
		return w
	case FIFO:
		w := int(r.fifo[set])
		r.fifo[set] = uint32((w + 1) & (r.assoc - 1))
		return w
	default: // Random
		// One step of a 16-bit Fibonacci LFSR (taps 16,14,13,11), the
		// classic pseudo-random replacement source.
		b := (r.lfsr ^ r.lfsr>>2 ^ r.lfsr>>3 ^ r.lfsr>>5) & 1
		r.lfsr = r.lfsr>>1 | b<<15
		return int(r.lfsr) & (r.assoc - 1)
	}
}
