package trace

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Profile summarizes a reference stream: the quantities the study's
// calibration rests on (reference mix, footprints, spatial locality) plus
// an LRU stack-distance histogram of data lines — the distribution that
// determines miss rate as a function of cache capacity.
type Profile struct {
	// Refs counts total references; Instr/Loads/Stores break them down.
	Refs   uint64
	Instr  uint64
	Loads  uint64
	Stores uint64

	// UniqueInstrLines and UniqueDataLines are the touched footprints in
	// 16-byte lines.
	UniqueInstrLines int
	UniqueDataLines  int

	// UniqueInstrAddrs and UniqueDataAddrs are the touched footprints in
	// distinct byte addresses — finer than the line footprints, and the
	// denominators the 3C compulsory-miss cross-check uses (a level's
	// compulsory misses equal its unique line footprint, so addr/line
	// ratios bound how much spatial locality amortizes cold misses).
	UniqueInstrAddrs int
	UniqueDataAddrs  int

	// SequentialInstrFrac is the fraction of instruction fetches that
	// directly follow the previous one (spatial locality of code).
	SequentialInstrFrac float64

	// DataStackHistogram buckets LRU stack distances of data-line reuse
	// by power of two: bucket i counts reuses at distance [2^i, 2^(i+1)).
	// Cold (first-touch) references are in ColdDataRefs; reuses deeper
	// than the tracked window (2^16 lines) are in FarDataRefs.
	DataStackHistogram []uint64
	ColdDataRefs       uint64
	FarDataRefs        uint64
}

// maxTrackedLines bounds the histogram; reuse at a greater stack
// distance is counted as FarDataRefs (it would miss in any on-chip cache
// anyway).
const maxTrackedLines = 1 << 16

// lineShiftDefault matches the study's 16-byte lines.
const lineShiftDefault = 4

// Analyze drains a stream and computes its profile. Stack distances of
// data lines are exact (a StackTracker over the data references), at
// O(log refs) per reference.
func Analyze(s Stream) Profile {
	var p Profile
	iLines := make(map[uint64]struct{})
	iAddrs := make(map[uint64]struct{})
	dAddrs := make(map[uint64]struct{})
	var prevInstr uint64
	var havePrev bool
	seq, iTotal := uint64(0), uint64(0)

	// Exact LRU stack distances over data lines: last holds each line's
	// latest access index in the tracker.
	dist := NewStackTracker(maxTrackedLines)
	last := make(map[uint64]int32)

	var hist []uint64

	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		p.Refs++
		switch r.Kind {
		case Instr:
			p.Instr++
			iTotal++
			line := r.Addr >> lineShiftDefault
			iLines[line] = struct{}{}
			iAddrs[r.Addr] = struct{}{}
			if havePrev && r.Addr == prevInstr+4 {
				seq++
			}
			prevInstr, havePrev = r.Addr, true
		default:
			if r.Kind == Write {
				p.Stores++
			} else {
				p.Loads++
			}
			dAddrs[r.Addr] = struct{}{}
			line := r.Addr >> lineShiftDefault
			d, _, idx := dist.Access(last[line])
			last[line] = idx
			switch {
			case d == 0:
				p.ColdDataRefs++
			case d > maxTrackedLines:
				p.FarDataRefs++
			default:
				b := bits.Len64(d) - 1 // d in [2^b, 2^(b+1))
				for len(hist) <= b {
					hist = append(hist, 0)
				}
				hist[b]++
			}
		}
	}
	p.UniqueInstrLines = len(iLines)
	p.UniqueDataLines = len(last)
	p.UniqueInstrAddrs = len(iAddrs)
	p.UniqueDataAddrs = len(dAddrs)
	if iTotal > 1 {
		p.SequentialInstrFrac = float64(seq) / float64(iTotal-1)
	}
	p.DataStackHistogram = hist
	return p
}

// InstrFrac reports instruction fetches per reference.
func (p Profile) InstrFrac() float64 {
	if p.Refs == 0 {
		return 0
	}
	return float64(p.Instr) / float64(p.Refs)
}

// StoreFrac reports stores per data reference.
func (p Profile) StoreFrac() float64 {
	if d := p.Loads + p.Stores; d > 0 {
		return float64(p.Stores) / float64(d)
	}
	return 0
}

// ReadWriteRatio reports loads per store (0 for a store-free stream,
// where the ratio is undefined — callers should check Stores first).
func (p Profile) ReadWriteRatio() float64 {
	if p.Stores == 0 {
		return 0
	}
	return float64(p.Loads) / float64(p.Stores)
}

// MissRatioAtCapacity estimates the data miss ratio of a fully
// associative LRU cache holding `lines` data lines, from the stack
// histogram: reuses at distance > lines miss, plus all cold references.
func (p Profile) MissRatioAtCapacity(lines int) float64 {
	data := p.Loads + p.Stores
	if data == 0 {
		return 0
	}
	misses := p.ColdDataRefs + p.FarDataRefs
	for b, n := range p.DataStackHistogram {
		// Bucket b spans [2^b, 2^(b+1)); it misses when its lower bound
		// exceeds the capacity (conservative at the boundary bucket).
		if 1<<uint(b) > lines {
			misses += n
		}
	}
	return float64(misses) / float64(data)
}

// Render writes the profile as aligned text.
func (p Profile) Render(w io.Writer) error {
	fmt.Fprintf(w, "references      : %d (%d instr, %d loads, %d stores)\n",
		p.Refs, p.Instr, p.Loads, p.Stores)
	fmt.Fprintf(w, "instr fraction  : %.3f   store fraction of data: %.3f\n",
		p.InstrFrac(), p.StoreFrac())
	fmt.Fprintf(w, "read/write ratio: %.2f loads per store\n", p.ReadWriteRatio())
	fmt.Fprintf(w, "code footprint  : %d lines (%s), %d unique addresses\n",
		p.UniqueInstrLines, formatBytes(int64(p.UniqueInstrLines)<<lineShiftDefault), p.UniqueInstrAddrs)
	fmt.Fprintf(w, "data footprint  : %d lines (%s), %d unique addresses\n",
		p.UniqueDataLines, formatBytes(int64(p.UniqueDataLines)<<lineShiftDefault), p.UniqueDataAddrs)
	fmt.Fprintf(w, "sequential instr: %.3f\n", p.SequentialInstrFrac)
	fmt.Fprintln(w, "data LRU stack-distance histogram (per power-of-two bucket):")
	total := p.Loads + p.Stores
	for b, n := range p.DataStackHistogram {
		if n == 0 {
			continue
		}
		lo := 1 << uint(b)
		bar := int(math.Round(40 * float64(n) / float64(total)))
		fmt.Fprintf(w, "  >=%7d lines: %9d  %s\n", lo, n, strings.Repeat("#", bar))
	}
	fmt.Fprintf(w, "  cold           : %9d   far (>%d lines): %d\n", p.ColdDataRefs, maxTrackedLines, p.FarDataRefs)
	fmt.Fprintln(w, "estimated fully-associative LRU data miss ratio by capacity:")
	caps := []int{64, 256, 1024, 4096, 16384, 65536}
	sort.Ints(caps)
	for _, c := range caps {
		fmt.Fprintf(w, "  %7d lines (%s): %.4f\n",
			c, formatBytes(int64(c)<<lineShiftDefault), p.MissRatioAtCapacity(c))
	}
	_, err := fmt.Fprintln(w)
	return err
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
