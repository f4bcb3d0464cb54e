package trace

import "fmt"

// GenParams parameterizes a synthetic workload generator. Each of the
// paper's seven SPEC89 workloads is described by one of these (see
// internal/spec); the parameters were calibrated so that simulated miss
// rates match the behaviour the paper reports (see spec's calibration
// tests).
//
// The model has three components:
//
//   - Instruction fetches: a program counter walks forward 4 bytes per
//     fetch. With probability 1/MeanRun a taken branch redirects it to a
//     target drawn from a move-to-front stack of branch targets with
//     Zipf(ITheta) stack-distance reuse; occasionally the branch opens a
//     brand-new target until the static code footprint (CodeBytes) is
//     covered. This yields the high spatial locality and footprint-bound
//     capacity behaviour of real instruction streams.
//
//   - Reused data: a move-to-front stack of heap lines with
//     Zipf(DTheta) stack-distance reuse. New lines are scattered through
//     a sparse address space by multiplicative hashing, which reproduces
//     the uneven set pressure (conflict misses) of real heaps — the
//     behaviour that set-associativity and exclusive caching exploit.
//
//   - Streaming data: a fraction of data references walk long arrays
//     sequentially and re-walk them when they wrap, the tomcatv-style
//     pattern whose miss rate barely improves with cache size.
type GenParams struct {
	// Name labels the workload.
	Name string
	// Seed makes the stream deterministic; each workload uses its own.
	Seed uint64

	// InstrFrac is the fraction of all references that are instruction
	// fetches (Table 1: instr refs / total refs). The machine model
	// issues at most one data reference per instruction (§2.1), so the
	// fraction must be at least 0.5 — every Table-1 workload satisfies
	// this comfortably.
	InstrFrac float64

	// CodeBytes is the static code footprint.
	CodeBytes int64
	// MeanRun is the mean number of sequential instructions between
	// taken branches.
	MeanRun float64
	// ITheta is the Zipf exponent for branch-target reuse.
	ITheta float64

	// DataLines is the heap footprint in 16-byte lines.
	DataLines int
	// DTheta is the Zipf exponent for heap-line reuse.
	DTheta float64
	// DNewFrac is the probability that a (non-streaming) data reference
	// touches a heap line never referenced before (ongoing compulsory
	// traffic from fresh allocations and new input).
	DNewFrac float64

	// StreamFrac is the fraction of data references that belong to
	// sequential array walks.
	StreamFrac float64
	// Streams is the number of concurrent array walks.
	Streams int
	// StreamLines is the length of each walked array in lines.
	StreamLines int

	// WriteFrac is the fraction of data references that are stores
	// (emitted as Kind Write). It only relabels references — addresses
	// and ordering are untouched, so hit/miss behaviour matches the
	// paper's writes-as-reads model while the write-back traffic
	// extension can track dirty lines. Zero emits loads only.
	WriteFrac float64
}

// Validate reports whether the parameters describe a usable generator.
func (p GenParams) Validate() error {
	switch {
	case p.InstrFrac < 0.5 || p.InstrFrac > 1:
		return fmt.Errorf("trace: InstrFrac %v outside [0.5,1] (at most one data ref per instruction)", p.InstrFrac)
	case p.CodeBytes < lineBytes:
		return fmt.Errorf("trace: CodeBytes %d below one line", p.CodeBytes)
	case p.MeanRun < 1:
		return fmt.Errorf("trace: MeanRun %v below 1", p.MeanRun)
	case p.DataLines < 1:
		return fmt.Errorf("trace: DataLines %d below 1", p.DataLines)
	case p.StreamFrac < 0 || p.StreamFrac > 1:
		return fmt.Errorf("trace: StreamFrac %v outside [0,1]", p.StreamFrac)
	case p.StreamFrac > 0 && (p.Streams < 1 || p.StreamLines < 1):
		return fmt.Errorf("trace: StreamFrac %v requires Streams and StreamLines", p.StreamFrac)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("trace: WriteFrac %v outside [0,1]", p.WriteFrac)
	}
	return nil
}

const (
	lineBytes = 16
	instrSize = 4 // one RISC instruction

	codeBase   = 0x0040_0000
	heapBase   = 0x1000_0000
	streamBase = 0x4000_0000

	// targetSpacing is the alignment of distinct branch targets within
	// the code region.
	targetSpacing = 32
	// heapSpread scatters heap lines over this multiple of the footprint
	// so that set pressure is uneven, as in real heaps.
	heapSpread = 4
)

// Generator produces an endless deterministic reference stream from
// GenParams. Wrap it in Limit (or use Generate) for a finite trace.
type Generator struct {
	p   GenParams
	rng *xorshift64
	// wrng decides store-vs-load labels independently of the main rng,
	// so enabling WriteFrac leaves the address stream byte-identical.
	wrng *xorshift64

	// Instruction state.
	pc         uint64
	runLeft    int
	targets    mtfStack
	nextTarget int
	maxTargets int
	iZipf      *zipfSampler
	branchProb float64

	// Data state.
	heap      mtfStack
	nextHeap  int
	heapSpace uint64
	dZipf     *zipfSampler

	streamPos  []int
	nextStream int

	// One instruction fetch may queue a data reference to follow it.
	pending    Ref
	hasPending bool
	dataProb   float64
}

// NewGenerator builds a generator; it panics on invalid parameters (use
// GenParams.Validate for untrusted input).
func NewGenerator(p GenParams) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	maxTargets := int(p.CodeBytes / targetSpacing)
	if maxTargets < 1 {
		maxTargets = 1
	}
	g := &Generator{
		p:          p,
		rng:        newXorshift(p.Seed),
		wrng:       newXorshift(p.Seed ^ 0x57524954455F5251), // "WRITE_RQ"
		pc:         codeBase,
		maxTargets: maxTargets,
		iZipf:      sharedZipfSampler(maxTargets, p.ITheta),
		dZipf:      sharedZipfSampler(p.DataLines, p.DTheta),
		branchProb: 1 / p.MeanRun,
		heapSpace:  uint64(p.DataLines) * heapSpread,
		dataProb:   (1 - p.InstrFrac) / p.InstrFrac,
	}
	if p.StreamFrac > 0 {
		g.streamPos = make([]int, p.Streams)
	}
	// Start in steady state: the full code and heap footprints are
	// already in the reuse stacks, so deep-capacity reuse appears from
	// the first reference, as it would in a warmed-up trace window.
	g.targets.prewarm(maxTargets, func(i int) uint64 { return g.targetAddr(i) })
	g.nextTarget = maxTargets
	g.heap.prewarm(p.DataLines, g.heapLine)
	g.nextHeap = p.DataLines
	return g
}

// Params returns the generator's parameters.
func (g *Generator) Params() GenParams { return g.p }

// Next produces the next reference. The stream never ends.
func (g *Generator) Next() (Ref, bool) {
	if g.hasPending {
		g.hasPending = false
		return g.pending, true
	}
	r := Ref{Kind: Instr, Addr: g.instrFetch()}
	if g.rng.float64() < g.dataProb {
		kind := Data
		if g.p.WriteFrac > 0 && g.wrng.float64() < g.p.WriteFrac {
			kind = Write
		}
		g.pending = Ref{Kind: kind, Addr: g.dataRef()}
		g.hasPending = true
	}
	return r, true
}

// targetAddr maps target index i to its code address.
func (g *Generator) targetAddr(i int) uint64 {
	return codeBase + uint64(i)*targetSpacing
}

// instrFetch advances the instruction stream by one fetch.
func (g *Generator) instrFetch() uint64 {
	if g.runLeft <= 0 {
		// Taken branch: jump to a target drawn from the reuse stack.
		d := g.iZipf.sample(g.rng.float64())
		if d > g.targets.depth() {
			d = g.targets.depth()
		}
		g.pc = g.targets.refDepth(d)
		g.runLeft = g.geometricRun()
	}
	a := g.pc
	g.pc += instrSize
	if g.pc >= codeBase+uint64(g.p.CodeBytes) {
		g.pc = codeBase
	}
	g.runLeft--
	return a
}

// geometricRun draws a run length with mean MeanRun (at least 1).
func (g *Generator) geometricRun() int {
	n := 1
	for g.rng.float64() >= g.branchProb {
		n++
		if float64(n) > 8*g.p.MeanRun { // cap pathological runs
			break
		}
	}
	return n
}

// heapLine maps heap-line index i to a scattered line address.
// Multiplicative hashing by a large odd constant spreads indices over
// heapSpread times the footprint, so cache sets see uneven pressure.
func (g *Generator) heapLine(i int) uint64 {
	h := (uint64(i) * 0x9E3779B97F4A7C15) % g.heapSpace
	return heapBase/lineBytes + h
}

// dataRef produces one data reference (returned as a byte address).
func (g *Generator) dataRef() uint64 {
	if g.p.StreamFrac > 0 && g.rng.float64() < g.p.StreamFrac {
		return g.streamRef()
	}
	var line uint64
	if g.rng.float64() < g.p.DNewFrac {
		// Ongoing compulsory traffic: the program keeps touching lines
		// it has never referenced before (fresh allocations, new input).
		line = g.heapLine(g.nextHeap)
		g.nextHeap++
		g.heap.push(line)
	} else {
		d := g.dZipf.sample(g.rng.float64())
		if d > g.heap.depth() {
			d = g.heap.depth()
		}
		line = g.heap.refDepth(d)
	}
	return line*lineBytes + uint64(g.rng.intn(4))*4
}

// streamRef advances one of the round-robin array walks by one element
// (8 bytes, two references per line) and returns the address touched.
func (g *Generator) streamRef() uint64 {
	s := g.nextStream
	g.nextStream = (g.nextStream + 1) % g.p.Streams
	pos := g.streamPos[s]
	g.streamPos[s] = (pos + 1) % (g.p.StreamLines * 2)
	// Stream regions are separated by a prime line offset so that
	// concurrent lockstep walks do not alias to the same cache set at
	// power-of-two cache sizes (real array bases are not so pathological).
	base := uint64(streamBase) + uint64(s)*uint64(g.p.StreamLines+13)*lineBytes
	return base + uint64(pos)*8
}

// Generate returns a finite stream of n references from params. Once
// the n-th reference is out, the generator's stack arenas go back to
// the pool for the next generator.
func Generate(p GenParams, n uint64) Stream {
	return &generated{g: NewGenerator(p), left: n}
}

type generated struct {
	g    *Generator
	left uint64
}

func (s *generated) Next() (Ref, bool) {
	if s.left == 0 {
		return Ref{}, false
	}
	s.left--
	r, _ := s.g.Next()
	if s.left == 0 {
		s.g.targets.release()
		s.g.heap.release()
		s.g = nil
	}
	return r, true
}
