// Package model is the analytical fast-path evaluation tier: it
// predicts miss rates — and, through the shared cost model, TPI — for
// every configuration of a sweep from ONE pass over the workload's
// reference stream, instead of one full simulation per configuration.
//
// The pass (Collect) runs the stream through three exact LRU
// stack-distance trackers (trace.StackTracker) in parallel — instruction
// references, data references, and the unified stream — and buckets the
// resulting stack distances and reuse times into a reuse-distance
// profile (the "twolevel-rdh/1" document). The predictor (Predict) then
// maps the bucketed stack-distance distribution through a probabilistic
// associativity model to per-level miss counts for ANY (size, assoc,
// hierarchy) geometry, and prices the result with the same
// sweep.PriceConfig the exact simulator uses. A sweep becomes
// O(refs + configs) rather than O(refs × configs).
//
// The tier's contract: points it produces are approximations, are
// always marked sweep.EvaluatorFast, and must never enter memoized
// result stores — only exact simulation results are durable.
// internal/service enforces this by refining every fast-tier point with
// an exact evaluation before storing anything.
package model

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"twolevel/internal/cache"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/trace"
)

// ProfileFormat identifies the reuse-distance histogram document
// schema.
const ProfileFormat = "twolevel-rdh/1"

// Bucketing: stack distances 1..256 get exact buckets (index d-1);
// distances in (2^o, 2^(o+1)] for octaves o = 8..23 get eight
// equal-width sub-buckets each (geometric resolution ~9%); everything
// beyond 2^24 lines lands in one overflow bucket. The scheme keeps the
// L1-relevant head of the distribution exact (256 lines = 4KB of
// 16-byte lines) while bounding the profile at a fixed size.
const (
	exactBuckets  = 256
	subPerOctave  = 8
	firstOctave   = 8
	lastOctave    = 23
	octaveBuckets = (lastOctave - firstOctave + 1) * subPerOctave
	// NumBuckets is the fixed length of every StreamProfile.Counts
	// slice: exact head + octave sub-buckets + overflow.
	NumBuckets = exactBuckets + octaveBuckets + 1
	// maxExactDist is the largest distance with its own bucket.
	maxExactDist = uint64(1) << (lastOctave + 1)
)

// bucketIndex maps a 1-based stack distance to its bucket.
func bucketIndex(d uint64) int {
	if d <= exactBuckets {
		return int(d - 1)
	}
	if d > maxExactDist {
		return NumBuckets - 1
	}
	o := bits.Len64(d-1) - 1 // octave: d ∈ (2^o, 2^(o+1)]
	sub := (d - 1 - 1<<o) >> (uint(o) - 3)
	return exactBuckets + (o-firstOctave)*subPerOctave + int(sub)
}

// bucketReps holds each bucket's representative distance: the exact
// distance for exact buckets, the geometric mean of the bounds for
// octave sub-buckets, and 2^25 for the overflow bucket (far beyond
// every modeled capacity, so it predicts a miss everywhere).
var bucketReps = func() [NumBuckets]float64 {
	var r [NumBuckets]float64
	for d := 1; d <= exactBuckets; d++ {
		r[d-1] = float64(d)
	}
	i := exactBuckets
	for o := firstOctave; o <= lastOctave; o++ {
		width := float64(uint64(1) << (uint(o) - 3))
		for sub := 0; sub < subPerOctave; sub++ {
			lo := float64(uint64(1)<<o) + float64(sub)*width // exclusive
			hi := lo + width
			r[i] = math.Sqrt((lo + 1) * hi)
			i++
		}
	}
	r[NumBuckets-1] = float64(uint64(2) * maxExactDist)
	return r
}()

// StreamProfile is the reuse-distance histogram of one reference
// stream.
type StreamProfile struct {
	// Refs is the total number of references in the stream.
	Refs uint64 `json:"refs"`
	// Writes counts store references (data/unified streams only).
	Writes uint64 `json:"writes,omitempty"`
	// Cold counts first-touch references — distinct lines, which miss
	// at every capacity.
	Cold uint64 `json:"cold"`
	// Counts is the bucketed stack-distance histogram of the re-
	// references (len NumBuckets; Cold + sum(Counts) == Refs).
	Counts []uint64 `json:"counts"`
	// TimeCounts is the bucketed reuse-TIME histogram of the same
	// re-references: distance measured in run-collapsed accesses
	// (distinct-line episodes) rather than distinct lines. Probabilistic
	// replacement models read it — eviction pressure under random
	// replacement accumulates per access that can miss, not per
	// distinct line. Same bucket scheme and total as Counts.
	TimeCounts []uint64 `json:"time_counts"`
	// Active counts the run-collapsed accesses of the stream (immediate
	// same-line repeats collapse into their first access) — the
	// denominator for per-episode miss rates over TimeCounts.
	Active uint64 `json:"active"`
}

// validate checks internal consistency after a load.
func (s *StreamProfile) validate(name string) error {
	if len(s.Counts) != NumBuckets || len(s.TimeCounts) != NumBuckets {
		return fmt.Errorf("%s stream: %d/%d buckets (want %d)",
			name, len(s.Counts), len(s.TimeCounts), NumBuckets)
	}
	// Every partial sum is checked against Refs before it grows, so a
	// document whose counts wrap uint64 cannot sum to Refs.
	if s.Cold > s.Refs {
		return fmt.Errorf("%s stream: cold=%d > refs=%d", name, s.Cold, s.Refs)
	}
	total, ttotal := s.Cold, s.Cold
	for i := range s.Counts {
		if s.Counts[i] > s.Refs-total || s.TimeCounts[i] > s.Refs-ttotal {
			return fmt.Errorf("%s stream: bucket %d takes cold+counts past refs=%d", name, i, s.Refs)
		}
		total += s.Counts[i]
		ttotal += s.TimeCounts[i]
	}
	if total != s.Refs {
		return fmt.Errorf("%s stream: cold+counts=%d but refs=%d", name, total, s.Refs)
	}
	if ttotal != s.Refs {
		return fmt.Errorf("%s stream: cold+time_counts=%d but refs=%d", name, ttotal, s.Refs)
	}
	if s.Writes > s.Refs {
		return fmt.Errorf("%s stream: writes=%d > refs=%d", name, s.Writes, s.Refs)
	}
	if s.Active > s.Refs {
		return fmt.Errorf("%s stream: active=%d > refs=%d", name, s.Active, s.Refs)
	}
	return nil
}

// Profile is one workload's serializable reuse-distance profile: the
// "twolevel-rdh/1" document. One profile predicts every configuration
// of a sweep run under the same Refs and LineSize.
type Profile struct {
	// Format is ProfileFormat.
	Format string `json:"format"`
	// Workload names the profiled workload.
	Workload string `json:"workload"`
	// Refs is the stream length the profile was collected over.
	Refs uint64 `json:"refs"`
	// LineSize is the line size (bytes) distances were computed at.
	LineSize int `json:"line_size"`
	// Fingerprint content-addresses the profile: equal fingerprints
	// mean the identical stream was profiled (workload generator
	// parameters, refs, and line size all pinned).
	Fingerprint string `json:"fingerprint"`
	// Instr, Data, and Unified are the per-stream histograms. L1I/L1D
	// predictions read the split streams; the unified stream drives the
	// on-chip (L2) hit model.
	Instr   StreamProfile `json:"instr"`
	Data    StreamProfile `json:"data"`
	Unified StreamProfile `json:"unified"`
}

// ProfileKey fingerprints the exact reference stream a profile of
// (w, opt) would be collected over. It is the content address used by
// Cache and recorded in Profile.Fingerprint.
func ProfileKey(w spec.Workload, opt sweep.Options) string {
	opt = opt.Defaulted()
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%+v|refs=%d|line=%d",
		w.Name, w.Gen, opt.Refs, opt.LineSize)))
	return hex.EncodeToString(h[:16])
}

// The pass keeps three exact LRU stacks (instruction, data, unified)
// but shares ONE line index across them: a sparse page table mapping
// line address → the line's latest access index in each stream's
// tracker. Every reference then costs one page-table probe (two array
// derefs behind a tiny cached-page check) plus two tracker accesses —
// no per-stream hash maps, which profiling shows would otherwise
// dominate the pass.

// triPageShift sizes the page table's leaves: 2^17 lines per page
// (a 2MB address span at 16-byte lines), so each of a workload's
// address regions lands in a handful of pages and the per-reference
// page lookup almost always hits the small cache in triIndex.
const triPageShift = 17

// triSlot holds one line's latest 1-based access index per stream
// (0 = never referenced there). Keeping all three in one slot means
// cold detection and previous-index update share a single probe.
type triSlot struct{ instr, data, uni int32 }

type triPage [1 << triPageShift]triSlot

// triIndex is the shared line index: lazily-allocated fixed-size pages
// under an 8-entry hash-mapped page cache. Correctness never depends
// on the cache — a miss just pays the map lookup.
type triIndex struct {
	pages map[uint64]*triPage
	key   [8]uint64 // cached page id + 1; 0 = empty
	val   [8]*triPage
}

func newTriIndex() *triIndex { return &triIndex{pages: make(map[uint64]*triPage)} }

func (t *triIndex) slot(l cache.LineAddr) *triSlot {
	pid := uint64(l) >> triPageShift
	h := (pid * 0x9E3779B97F4A7C15) >> 61 // multiplicative hash: region bases are power-of-two aligned
	if t.key[h] == pid+1 {
		return &t.val[h][uint64(l)&(1<<triPageShift-1)]
	}
	pg := t.pages[pid]
	if pg == nil {
		pg = new(triPage)
		t.pages[pid] = pg
	}
	t.key[h], t.val[h] = pid+1, pg
	return &pg[uint64(l)&(1<<triPageShift-1)]
}

// streamAcc accumulates one stream's histograms. Its tracker is sized
// for the whole pass up front, so it never grows.
type streamAcc struct {
	p    StreamProfile
	dist *trace.StackTracker
}

func newStreamAcc(capacity int) *streamAcc {
	return &streamAcc{dist: trace.NewStackTracker(capacity), p: StreamProfile{
		Counts:     make([]uint64, NumBuckets),
		TimeCounts: make([]uint64, NumBuckets),
	}}
}

// observe folds one reference into the stream. slot is the line's
// latest-access cell in this stream (from the shared triIndex).
func (a *streamAcc) observe(write bool, slot *int32) {
	a.p.Refs++
	if write {
		a.p.Writes++
	}
	d, t, idx := a.dist.Access(*slot)
	*slot = idx
	if d == 0 {
		a.p.Cold++
		return
	}
	a.p.Counts[bucketIndex(d)]++
	a.p.TimeCounts[bucketIndex(t)]++
}

// profile returns the finished histograms; Active is the tracker's
// count of run-collapsed accesses.
func (a *streamAcc) profile() StreamProfile {
	a.p.Active = uint64(a.dist.N())
	return a.p
}

// Collect runs one pass over the workload's reference stream and
// returns its reuse-distance profile. Only the Refs and LineSize
// fields of opt participate (after defaulting). The pass honors ctx
// cancellation, checking every 64K references.
func Collect(ctx context.Context, w spec.Workload, opt sweep.Options) (*Profile, error) {
	opt = opt.Defaulted()
	if opt.LineSize <= 0 || opt.LineSize&(opt.LineSize-1) != 0 {
		return nil, fmt.Errorf("model: line size %d is not a positive power of two", opt.LineSize)
	}
	shift := uint(bits.TrailingZeros64(uint64(opt.LineSize)))
	capacity := int(opt.Refs)
	instr, data, uni := newStreamAcc(capacity), newStreamAcc(capacity), newStreamAcc(capacity)
	idx := newTriIndex()
	st := w.Stream(opt.Refs)
	// 4Ki references per Fill, so n is a multiple of 64Ki every 16th.
	buf := make([]trace.Ref, 1<<12)
	var n uint64
	for {
		if n&0xFFFF == 0 && ctx != nil {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		k := trace.Fill(st, buf)
		for _, r := range buf[:k] {
			l := cache.LineAddr(r.Addr >> shift)
			wr := r.Kind == trace.Write
			s := idx.slot(l)
			if r.Kind.IsData() {
				data.observe(wr, &s.data)
			} else {
				instr.observe(false, &s.instr)
			}
			uni.observe(wr, &s.uni)
		}
		n += uint64(k)
		if k < len(buf) {
			break
		}
	}
	return &Profile{
		Format:      ProfileFormat,
		Workload:    w.Name,
		Refs:        n,
		LineSize:    opt.LineSize,
		Fingerprint: ProfileKey(w, opt),
		Instr:       instr.profile(),
		Data:        data.profile(),
		Unified:     uni.profile(),
	}, nil
}

// Validate checks a profile's structural consistency (format string,
// bucket counts, per-stream totals, instr+data vs unified agreement).
func (p *Profile) Validate() error {
	if p.Format != ProfileFormat {
		return fmt.Errorf("unknown format %q (want %q)", p.Format, ProfileFormat)
	}
	if err := p.Instr.validate("instr"); err != nil {
		return err
	}
	if err := p.Data.validate("data"); err != nil {
		return err
	}
	if err := p.Unified.validate("unified"); err != nil {
		return err
	}
	if p.Instr.Refs > p.Unified.Refs || p.Data.Refs != p.Unified.Refs-p.Instr.Refs {
		return fmt.Errorf("instr refs %d + data refs %d != unified refs %d",
			p.Instr.Refs, p.Data.Refs, p.Unified.Refs)
	}
	if p.Unified.Refs != p.Refs {
		return fmt.Errorf("unified refs %d != profile refs %d", p.Unified.Refs, p.Refs)
	}
	return nil
}

// WriteJSON renders the profile as an indented twolevel-rdh/1
// document.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadProfile parses and validates a twolevel-rdh/1 document.
func LoadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("model: decoding profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("model: invalid profile: %w", err)
	}
	return &p, nil
}

// Cache memoizes profiles content-addressed by ProfileKey, with
// single-flight collection: concurrent Get calls for one key run one
// pass and share the result. Failed passes (context cancellation) are
// not cached — the next Get retries. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	mu   sync.Mutex
	prof *Profile
}

// NewCache returns an empty profile cache.
func NewCache() *Cache { return &Cache{entries: make(map[string]*cacheEntry)} }

// Get returns the cached profile for (w, opt), collecting it on first
// use. Concurrent calls for the same key block on one collection.
func (c *Cache) Get(ctx context.Context, w spec.Workload, opt sweep.Options) (*Profile, error) {
	p, _, err := c.get(ctx, w, opt)
	return p, err
}

// get is Get plus a report of whether THIS call ran the collection
// pass (false for cache hits and for waiters that blocked on a
// concurrent collector).
func (c *Cache) get(ctx context.Context, w spec.Workload, opt sweep.Options) (p *Profile, ran bool, err error) {
	key := ProfileKey(w, opt)
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prof != nil {
		return e.prof, false, nil
	}
	p, err = Collect(ctx, w, opt)
	if err != nil {
		return nil, false, err
	}
	e.prof = p
	return p, true, nil
}

// Len reports the number of cached profiles.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		e.mu.Lock()
		if e.prof != nil {
			n++
		}
		e.mu.Unlock()
	}
	return n
}
