// Package trace provides the memory-reference substrate for the study:
// reference types, reference streams, synthetic SPEC89-like workload
// generators, and trace file I/O.
//
// The original study used real address traces captured with the WRL
// tracing system (Borg et al., WRL 89/14) on a DECStation 5000. Those
// traces are not available, so this package substitutes deterministic
// synthetic generators whose reuse behaviour (LRU stack-distance
// distribution, sequential instruction runs, streaming data walks) is
// calibrated per workload against the miss rates the paper quotes. See
// DESIGN.md §2 for the substitution argument.
package trace

import (
	"fmt"
	"slices"
)

// Kind distinguishes instruction fetches from data references. The study
// models writes as reads for hit/miss purposes (write-allocate,
// fetch-on-write, §2.2); the Write kind exists so the write-back traffic
// extension can track dirty lines, and behaves exactly like Data
// everywhere else.
type Kind uint8

const (
	// Instr is an instruction fetch.
	Instr Kind = iota
	// Data is a data load.
	Data
	// Write is a data store (allocates like a load, dirties the line).
	Write
)

// String names the reference kind.
func (k Kind) String() string {
	switch k {
	case Instr:
		return "instr"
	case Data:
		return "data"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsData reports whether the reference is a data load or store.
func (k Kind) IsData() bool { return k == Data || k == Write }

// Ref is one memory reference.
type Ref struct {
	Kind Kind
	Addr uint64
}

// Stream produces references one at a time. Next reports false when the
// stream is exhausted.
type Stream interface {
	Next() (Ref, bool)
}

// filler is a Stream that can produce many references per call. Fill
// writes references into buf from the front and returns how many it
// wrote, fewer than len(buf) only once the stream has ended.
type filler interface {
	Fill(buf []Ref) int
}

// BatchRefs is the batch size, 8 KB of references, in which the
// simulators and the trace tools drain a stream through Fill.
const BatchRefs = 512

// Fill reads references from s into buf until buf is full or s ends,
// and returns how many it read: through s's own Fill method when it has
// one, otherwise one Next at a time. Every bulk reader of a stream
// drains it through here.
func Fill(s Stream, buf []Ref) int {
	if f, ok := s.(filler); ok {
		return f.Fill(buf)
	}
	for k := range buf {
		r, ok := s.Next()
		if !ok {
			return k
		}
		buf[k] = r
	}
	return len(buf)
}

// SliceStream replays a fixed slice of references.
type SliceStream struct {
	refs []Ref
	pos  int
}

// NewSliceStream wraps refs in a Stream.
func NewSliceStream(refs []Ref) *SliceStream { return &SliceStream{refs: refs} }

// Next returns the next reference in the slice.
func (s *SliceStream) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Fill copies the next references of the slice into buf.
func (s *SliceStream) Fill(buf []Ref) int {
	n := copy(buf, s.refs[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Limit wraps a stream and stops it after n references.
type Limit struct {
	inner Stream
	left  uint64
}

// NewLimit returns a stream producing at most n references from inner.
func NewLimit(inner Stream, n uint64) *Limit { return &Limit{inner: inner, left: n} }

// Next returns the next reference until the limit is reached.
func (l *Limit) Next() (Ref, bool) {
	if l.left == 0 {
		return Ref{}, false
	}
	r, ok := l.inner.Next()
	if !ok {
		l.left = 0
		return Ref{}, false
	}
	l.left--
	return r, true
}

// Fill reads up to the limit through inner's Fill, if it has one.
func (l *Limit) Fill(buf []Ref) int {
	n := int(min(uint64(len(buf)), l.left))
	k := Fill(l.inner, buf[:n])
	l.left -= uint64(k)
	if k < n {
		l.left = 0
	}
	return k
}

// collectPrealloc caps the capacity Collect allocates up front (4M
// references, 64 MB), so a bogus max cannot allocate gigabytes before
// the stream proves that long; a longer stream grows past it by append.
const collectPrealloc = 1 << 22

// Collect drains up to max references from s into a slice, through
// Fill. A max of 0 collects the whole stream. A positive max sizes the
// slice up front (clamped to collectPrealloc), which saves the garbage
// of growing it.
func Collect(s Stream, max uint64) []Ref {
	var out []Ref
	if max > 0 {
		out = make([]Ref, 0, min(max, collectPrealloc))
	}
	for max == 0 || uint64(len(out)) < max {
		if len(out) == cap(out) {
			out = slices.Grow(out, 1)
		}
		n := cap(out) - len(out)
		if max > 0 {
			n = int(min(uint64(n), max-uint64(len(out))))
		}
		k := Fill(s, out[len(out):len(out)+n])
		out = out[:len(out)+k]
		if k < n {
			break
		}
	}
	return out
}

// Count tallies instruction and data references in a stream, draining
// it. Writes count as data references, as in the paper's Table 1.
func Count(s Stream) (instr, data uint64) {
	buf := make([]Ref, BatchRefs)
	for {
		n := Fill(s, buf)
		for _, r := range buf[:n] {
			if r.Kind == Instr {
				instr++
			} else {
				data++
			}
		}
		if n < len(buf) {
			return instr, data
		}
	}
}
