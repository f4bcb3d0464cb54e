package core

import (
	"fmt"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// StreamBuffer implements the other half of the paper's reference [4]
// (Jouppi 1990, "Improving Direct-Mapped Cache Performance by the
// Addition of a Small Fully-Associative Cache and Prefetch Buffers"): a
// FIFO of sequentially-prefetched lines placed behind a direct-mapped
// cache. On a cache miss the buffer head is checked; a head hit supplies
// the line and shifts the FIFO, launching a prefetch of the next
// sequential line. A miss restarts the buffer at the missing line + 1.
//
// The model is occupancy-only, like the rest of the study: prefetches
// complete instantly and their bandwidth cost is reported in Prefetches,
// not charged in time.
type StreamBuffer struct {
	entries []cache.LineAddr
	valid   []bool
	next    cache.LineAddr // next line to prefetch

	// Hits counts misses served by the buffer head; Restarts counts
	// buffer flushes on a non-head miss; Prefetches counts lines fetched
	// into the buffer.
	Hits       uint64
	Restarts   uint64
	Prefetches uint64

	// mFills is the registry counter for prefetch fills (nil when
	// uninstrumented; see StreamBufferSystem.Instrument).
	mFills *obs.Counter
}

// NewStreamBuffer builds a buffer of depth entries (Jouppi used 4).
func NewStreamBuffer(depth int) (*StreamBuffer, error) {
	if depth < 1 {
		return nil, fmt.Errorf("core: stream buffer depth %d must be >= 1", depth)
	}
	return &StreamBuffer{
		entries: make([]cache.LineAddr, depth),
		valid:   make([]bool, depth),
	}, nil
}

// Lookup consumes a cache miss for line l: true means the buffer head
// held the line (it is shifted out and a new prefetch fills the tail);
// false restarts the buffer at l+1.
func (b *StreamBuffer) Lookup(l cache.LineAddr) bool {
	if b.valid[0] && b.entries[0] == l {
		b.Hits++
		copy(b.entries, b.entries[1:])
		copy(b.valid, b.valid[1:])
		last := len(b.entries) - 1
		b.entries[last] = b.next
		b.valid[last] = true
		b.next++
		b.Prefetches++
		b.mFills.Inc()
		return true
	}
	// Restart: begin prefetching the successors of the missing line.
	b.Restarts++
	for i := range b.entries {
		b.entries[i] = l + 1 + cache.LineAddr(i)
		b.valid[i] = true
		b.Prefetches++
		b.mFills.Inc()
	}
	b.next = l + 1 + cache.LineAddr(len(b.entries))
	return false
}

// streamLookup is the common surface of single and multi-way buffers.
type streamLookup interface {
	Lookup(cache.LineAddr) bool
}

// StreamBufferSystem pairs a hierarchy with per-L1 stream buffers: a
// single buffer on the instruction cache (code is one stream) and a
// multi-way set on the data cache (interleaved array walks each need
// their own buffer), exactly [4]'s arrangement.
type StreamBufferSystem struct {
	sys  *System
	ibuf *StreamBuffer
	dbuf *StreamBufferSet // nil when data prefetching is off
}

// NewStreamBufferSystem builds the wrapper. depth is the per-buffer
// depth; dataWays is the number of data-side buffers (0 disables data
// prefetching; Jouppi used four).
func NewStreamBufferSystem(cfg Config, depth, dataWays int) (*StreamBufferSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ibuf, err := NewStreamBuffer(depth)
	if err != nil {
		return nil, err
	}
	s := &StreamBufferSystem{sys: NewSystem(cfg), ibuf: ibuf}
	if dataWays > 0 {
		if s.dbuf, err = NewStreamBufferSet(dataWays, depth); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Access simulates one reference. A stream-buffer hit fills the L1
// directly (the reference never reaches the L2 or off-chip path), which
// is the [4] arrangement: the buffer sits between the L1 and the next
// level.
func (s *StreamBufferSystem) Access(r trace.Ref) {
	var l1 *cache.Cache
	var buf streamLookup
	switch r.Kind {
	case trace.Instr:
		l1, buf = s.sys.L1I(), s.ibuf
	default:
		l1 = s.sys.L1D()
		if s.dbuf != nil {
			buf = s.dbuf
		}
	}
	if buf == nil || l1.Contains(cache.Addr(r.Addr)) {
		s.sys.Access(r)
		return
	}
	// The L1 will miss; consult the stream buffer first.
	if buf.Lookup(l1.Line(cache.Addr(r.Addr))) {
		// Served by the buffer: fill the L1 without involving L2/memory.
		// Count the reference at the L1 level only.
		if r.Kind == trace.Instr {
			s.sys.st.InstrRefs++
			s.sys.st.L1IMisses++
		} else {
			s.sys.st.DataRefs++
			if r.Kind == trace.Write {
				s.sys.st.WriteRefs++
			}
			s.sys.st.L1DMisses++
		}
		dirty := r.Kind == trace.Write && s.sys.cfg.Writes == WriteBackAllocate
		reqLine := l1.Line(cache.Addr(r.Addr))
		if v := l1.InsertLineState(reqLine, dirty); v.Valid {
			// Victims follow the hierarchy's policy: exclusive systems
			// move them into the L2, others drop (writing back if dirty).
			if s.sys.cfg.Policy == Exclusive && s.sys.l2 != nil {
				s.sys.victimToL2(v, reqLine, false)
			} else {
				s.sys.retireL1Victim(v)
			}
		}
		// Non-exclusive refills populate the L2 too (the buffer's line
		// came through the L2 path in [4]'s arrangement), preserving the
		// conventional/inclusive fill semantics.
		if s.sys.cfg.Policy != Exclusive && s.sys.l2 != nil {
			v2 := s.sys.l2.InsertLine(reqLine)
			if v2.Valid && v2.Dirty {
				s.sys.st.WriteBacksOffChip++
			}
			if s.sys.cfg.Policy == Inclusive && v2.Valid {
				s.sys.backInvalidate(s.sys.l1i, v2.Line)
				s.sys.backInvalidate(s.sys.l1d, v2.Line)
			}
		}
		return
	}
	s.sys.Access(r)
}

// Instrument wires the wrapped hierarchy and every stream buffer into a
// metrics registry; fills from all buffers aggregate into one
// "core_stream_buffer_fills_total" counter. Nil-safe like
// System.Instrument.
func (s *StreamBufferSystem) Instrument(r *obs.Registry) {
	s.sys.Instrument(r)
	fills := r.Counter("core_stream_buffer_fills_total")
	s.ibuf.mFills = fills
	if s.dbuf != nil {
		for _, b := range s.dbuf.bufs {
			b.mFills = fills
		}
	}
}

// Run drains a stream through the system.
func (s *StreamBufferSystem) Run(st trace.Stream) Stats {
	buf := make([]trace.Ref, trace.BatchRefs)
	for {
		n := trace.Fill(st, buf)
		for _, r := range buf[:n] {
			s.Access(r)
		}
		if n < len(buf) {
			return s.sys.Stats()
		}
	}
}

// Stats returns the hierarchy statistics.
func (s *StreamBufferSystem) Stats() Stats { return s.sys.Stats() }

// InstrBuffer exposes the instruction-side buffer counters.
func (s *StreamBufferSystem) InstrBuffer() *StreamBuffer { return s.ibuf }

// DataBuffers exposes the data-side buffer set, or nil.
func (s *StreamBufferSystem) DataBuffers() *StreamBufferSet { return s.dbuf }

// OnChip exposes the wrapped hierarchy.
func (s *StreamBufferSystem) OnChip() *System { return s.sys }

// StreamBufferSet is [4]'s multi-way stream buffer: several buffers in
// parallel, so interleaved streams (tomcatv's seven arrays) each keep
// their own prefetch sequence instead of constantly restarting a single
// buffer. A miss checks every buffer's head; when none matches, the
// least-recently-used buffer is restarted on the new stream.
type StreamBufferSet struct {
	bufs []*StreamBuffer
	lru  []uint64
	tick uint64
}

// NewStreamBufferSet builds ways buffers of the given depth (Jouppi used
// four 4-entry buffers for data caches).
func NewStreamBufferSet(ways, depth int) (*StreamBufferSet, error) {
	if ways < 1 {
		return nil, fmt.Errorf("core: stream buffer set needs >= 1 way, got %d", ways)
	}
	s := &StreamBufferSet{lru: make([]uint64, ways)}
	for i := 0; i < ways; i++ {
		b, err := NewStreamBuffer(depth)
		if err != nil {
			return nil, err
		}
		s.bufs = append(s.bufs, b)
	}
	return s, nil
}

// Lookup consumes a miss for line l: a head match in any buffer serves
// it; otherwise the LRU buffer restarts at l+1.
func (s *StreamBufferSet) Lookup(l cache.LineAddr) bool {
	s.tick++
	for i, b := range s.bufs {
		if b.valid[0] && b.entries[0] == l {
			s.lru[i] = s.tick
			return b.Lookup(l) // head hit: shifts and prefetches
		}
	}
	// Restart the least-recently-used buffer.
	victim := 0
	for i := 1; i < len(s.bufs); i++ {
		if s.lru[i] < s.lru[victim] {
			victim = i
		}
	}
	s.lru[victim] = s.tick
	s.bufs[victim].Lookup(l)
	return false
}

// Hits totals head hits across the set.
func (s *StreamBufferSet) Hits() uint64 {
	var n uint64
	for _, b := range s.bufs {
		n += b.Hits
	}
	return n
}

// Restarts totals buffer restarts across the set.
func (s *StreamBufferSet) Restarts() uint64 {
	var n uint64
	for _, b := range s.bufs {
		n += b.Restarts
	}
	return n
}
