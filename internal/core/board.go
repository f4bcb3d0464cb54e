package core

import (
	"fmt"

	"twolevel/internal/cache"
	"twolevel/internal/trace"
)

// BoardSystem wraps an on-chip System with an explicit board-level cache
// — the thing the paper's 50ns off-chip service time stands for ("systems
// with and without a board-level cache", §2.1). Instead of assuming every
// off-chip request is served in a flat 50ns, the board cache is simulated:
// hits are served at board speed, misses go to main memory.
//
// The board cache is mixed, physically addressed, demand-filled, and
// lockup, like the paper's board-level caches of the era. Per the §8
// closing note, inclusion between the on-chip caches and the board cache
// is the multiprocessor-friendly arrangement; this model demand-fills
// without enforcing it (the counters are what the study needs).
type BoardSystem struct {
	sys   *System
	board *cache.Cache
	st    BoardStats
}

// BoardStats extends the on-chip statistics with board-level counts.
type BoardStats struct {
	// BoardHits and BoardMisses split the on-chip system's off-chip
	// fetches: hits are served by the board cache, misses by memory.
	BoardHits   uint64
	BoardMisses uint64
}

// NewBoardSystem builds an on-chip hierarchy backed by a board cache.
// The board cache line size must match the on-chip line size.
func NewBoardSystem(onChip Config, board cache.Config) (*BoardSystem, error) {
	if err := onChip.Validate(); err != nil {
		return nil, err
	}
	if err := board.Validate(); err != nil {
		return nil, fmt.Errorf("board: %w", err)
	}
	if board.LineSize != onChip.L1I.LineSize {
		return nil, fmt.Errorf("core: board line %dB != on-chip line %dB",
			board.LineSize, onChip.L1I.LineSize)
	}
	if board.Size <= onChip.L2.Size {
		return nil, fmt.Errorf("core: board cache (%d B) should exceed the on-chip L2 (%d B)",
			board.Size, onChip.L2.Size)
	}
	return &BoardSystem{
		sys:   NewSystem(onChip),
		board: cache.New(board),
	}, nil
}

// Access simulates one reference through the on-chip hierarchy and, on an
// off-chip fetch, through the board cache.
func (b *BoardSystem) Access(r trace.Ref) {
	before := b.sys.Stats().OffChipFetches
	b.sys.Access(r)
	if b.sys.Stats().OffChipFetches == before {
		return // served on-chip
	}
	if hit, _ := b.board.Access(cache.Addr(r.Addr)); hit {
		b.st.BoardHits++
	} else {
		b.st.BoardMisses++
	}
}

// Run drains a stream through the system.
func (b *BoardSystem) Run(s trace.Stream) (Stats, BoardStats) {
	buf := make([]trace.Ref, trace.BatchRefs)
	for {
		n := trace.Fill(s, buf)
		for _, r := range buf[:n] {
			b.Access(r)
		}
		if n < len(buf) {
			return b.sys.Stats(), b.st
		}
	}
}

// OnChip exposes the wrapped on-chip system.
func (b *BoardSystem) OnChip() *System { return b.sys }

// Board exposes the board-level cache.
func (b *BoardSystem) Board() *cache.Cache { return b.board }

// Stats returns the on-chip statistics accumulated so far.
func (b *BoardSystem) Stats() Stats { return b.sys.Stats() }

// BoardStats returns the board-level statistics accumulated so far.
func (b *BoardSystem) BoardStats() BoardStats { return b.st }

// MemoryMissRate reports board-cache misses per reference — the traffic
// main memory sees.
func (b *BoardSystem) MemoryMissRate() float64 {
	refs := b.sys.Stats().Refs()
	if refs == 0 {
		return 0
	}
	return float64(b.st.BoardMisses) / float64(refs)
}
