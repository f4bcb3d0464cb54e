package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// differentialCases is how many two-level cases of each policy the seeded
// table TestL1PassReplayOracle runs in plain go test.
const differentialCases = 10_000

// randomCase draws one differential case: direct-mapped L1s of 1–128
// lines (the two sizes usually equal), lines of 1–32 bytes, and, in four
// cases of five, an L2 of 1–8 ways × {random, LRU, FIFO} with up to 128
// sets under the conventional or the exclusive policy. The trace has 1–1500 references over a footprint of 1–4096
// lines, with drawn instruction and store fractions and a mix of
// sequential runs and random jumps.
func randomCase(rng *rand.Rand) (Config, []trace.Ref) {
	line := 1 << rng.IntN(6)
	cfg := randomConfig(rng, line)
	return cfg, randomTrace(rng, line)
}

// randomConfig draws the geometry and policy of one randomCase with the
// given line size.
func randomConfig(rng *rand.Rand, line int) Config {
	l1i := 1 << rng.IntN(8)
	l1d := l1i
	if rng.IntN(4) == 0 {
		l1d = 1 << rng.IntN(8)
	}
	cfg := Config{
		L1I: cache.Config{Size: int64(l1i * line), LineSize: line, Assoc: 1},
		L1D: cache.Config{Size: int64(l1d * line), LineSize: line, Assoc: 1},
	}
	if rng.IntN(5) != 0 {
		assoc := 1 << rng.IntN(4)
		cfg.L2 = cache.Config{
			Size:     int64(assoc << rng.IntN(8) * line),
			LineSize: line,
			Assoc:    assoc,
			Policy:   cache.ReplacementPolicy(rng.IntN(3)),
		}
		cfg.Policy = Policy(rng.IntN(2))
	}
	return cfg
}

// randomTrace draws the trace of one randomCase, whose footprint is
// counted in lines of the given size.
func randomTrace(rng *rand.Rand, line int) []trace.Ref {
	n := 1 + rng.IntN(1500)
	footprint := uint64(1) << rng.IntN(13)
	instrFrac, writeFrac := rng.Float64(), rng.Float64()
	var base uint64
	if rng.IntN(4) == 0 {
		base = rng.Uint64() // tags with high bits set, wrapping at the top
	}
	refs := make([]trace.Ref, n)
	var pc, data uint64
	for i := range refs {
		r := &refs[i]
		if rng.Float64() < instrFrac {
			r.Kind = trace.Instr
			if rng.IntN(8) == 0 {
				pc = rng.Uint64N(footprint * uint64(line))
			} else {
				pc += 4
			}
			r.Addr = base + pc
			continue
		}
		r.Kind = trace.Data
		if rng.Float64() < writeFrac {
			r.Kind = trace.Write
		}
		if rng.IntN(2) == 0 {
			data = rng.Uint64N(footprint * uint64(line))
		} else {
			data += uint64(line)
		}
		r.Addr = base + data
	}
	return refs
}

// separateSides returns a copy of refs with the instruction and the
// data lines apart: bit 63 clear in every instruction address and set
// in every data address, so every instruction line lies below every
// data line and no line is ever in both L1s.
func separateSides(refs []trace.Ref) []trace.Ref {
	out := make([]trace.Ref, len(refs))
	for i, r := range refs {
		if r.Kind == trace.Instr {
			r.Addr &^= 1 << 63
		} else {
			r.Addr |= 1 << 63
		}
		out[i] = r
	}
	return out
}

// exclusiveLoop names the loop an exclusive replay of refs into cfg must
// end on, decided from the trace alone: "disjoint" (stepDisjoint for
// every chunk) when the L2 is narrow and the ranges of the instruction
// and the data lines referenced do not overlap, "probing" (stepProbing
// from the first chunk whose ranges overlap, or from the start)
// otherwise. A side misses every line it references at least once, so
// these are the ranges of its missed lines.
func exclusiveLoop(cfg Config, refs []trace.Ref) string {
	if !newL2Kernel(cfg.L2).narrow() {
		return "probing"
	}
	shift := bits.TrailingZeros(uint(cfg.L1I.LineSize))
	lo := [2]uint64{math.MaxUint64, math.MaxUint64}
	var hi [2]uint64
	for _, r := range refs {
		side, l := 0, r.Addr>>shift
		if r.Kind != trace.Instr {
			side = 1
		}
		lo[side], hi[side] = min(lo[side], l), max(hi[side], l)
	}
	if hi[0] < lo[1] || hi[1] < lo[0] {
		return "disjoint"
	}
	return "probing"
}

// recordGroups records refs in one walk, fed in pieces of at most piece
// references (0 for one piece), with one pass per group of groups, and
// finishes the recording. A maxEvents above zero caps every pass's
// chunks at that many miss events. It returns the passes' followers,
// none of which has walked a chunk yet.
func recordGroups(groups [][]Config, refs []trace.Ref, piece, maxEvents int) ([]*Follower, error) {
	rec, err := NewL1Recorder(groups)
	if err != nil {
		return nil, err
	}
	if maxEvents > 0 {
		setMaxChunk(rec, maxEvents)
	}
	fols := rec.Followers()
	for rest := refs; len(rest) > 0; {
		k := len(rest)
		if piece > 0 {
			k = min(piece, k)
		}
		if err := rec.Record(context.Background(), rest[:k]); err != nil {
			return nil, err
		}
		rest = rest[k:]
	}
	rec.Finish()
	return fols, nil
}

// drain walks every chunk of a finished recording through f and returns
// f's results, in the order of its group.
func drain(f *Follower) []Replayed {
	for {
		if more, _ := f.Wait(context.Background()); !more {
			return f.Results()
		}
		f.Step()
	}
}

// threeWayGroup is the group checkThreeWay replays: cfg, and the
// single-level hierarchy with cfg's L1s.
func threeWayGroup(cfg Config) []Config {
	single := cfg
	single.L2 = cache.Config{}
	return []Config{cfg, single}
}

// checkExclusiveLoop records refs through cfg's L1s and checks that the
// pass takes the loop exclusiveLoop names, returning the pass's
// follower, of cfg's threeWayGroup, and the loop's name.
func checkExclusiveLoop(cfg Config, refs []trace.Ref) (*Follower, string, error) {
	fols, err := recordGroups([][]Config{threeWayGroup(cfg)}, refs, 0, 0)
	if err != nil {
		return nil, "", err
	}
	f, loop := fols[0], exclusiveLoop(cfg, refs)
	if got := newL2Kernel(cfg.L2).narrow() && disjoint(&f.icache, &f.dcache); got != (loop == "disjoint") {
		return nil, "", fmt.Errorf("the pass takes the disjoint loop: %v, the trace says %s", got, loop)
	}
	return f, loop, nil
}

// checkThreeWay compares every Stats field of the reference simulator,
// System.Run, and, when cfg is ReplayEligible, an L1 pass replayed into
// cfg and into the single-level hierarchy with the same L1s. It returns
// the reference simulator's statistics and hierarchy.
//
// f is the unwalked follower of a pass of cfg's L1s over refs that
// replays cfg's threeWayGroup, or nil to record one.
func checkThreeWay(cfg Config, refs []trace.Ref, f *Follower) (Stats, *refHierarchy, error) {
	want, ref := refRun(cfg, refs)
	if got := NewSystem(cfg).Run(trace.NewSliceStream(refs)); got != want {
		return want, ref, fmt.Errorf("System.Run %+v\n oracle %+v", got, want)
	}
	if !ReplayEligible(cfg) {
		return want, ref, nil
	}
	if f == nil {
		fols, err := recordGroups([][]Config{threeWayGroup(cfg)}, refs, 0, 0)
		if err != nil {
			return want, ref, err
		}
		f = fols[0]
	}
	res := drain(f)
	if got := res[0].Stats; got != want {
		return want, ref, fmt.Errorf("replay %+v\n oracle %+v", got, want)
	}
	wantSingle, _ := refRun(threeWayGroup(cfg)[1], refs)
	if got := res[1].Stats; got != wantSingle {
		return want, ref, fmt.Errorf("single-level replay %+v\n oracle %+v", got, wantSingle)
	}
	return want, ref, nil
}

// TestL1PassReplayOracle is the differential test of the L1-once kernel:
// a seeded table of random geometries, policies and traces on which the
// pass and replay, System.Run and the naive reference simulator must
// agree on every counter. It runs until it has checked differentialCases
// two-level hierarchies under each of the conventional and exclusive
// policies. Two more sources, drawn after each case so that the table's
// cases and totals stay those of its first version, add copies of
// cases. The first adds a copy of half the exclusive cases with their
// sides' lines apart (separateSides), and the table must drive both
// exclusive loops over L2 hits, swaps and victims, with the probing loop
// finding victims already in the L2 and the disjoint loop never able to.
// The second adds a copy of three cases in four under the inclusive
// policy, write-through stores or both, which no replay takes: on those
// System.Run and the reference simulator alone must agree, and they must
// back-invalidate L1 lines, dirty ones too, and write stores through
// into the L2 and off-chip. The cases are drawn in order on one
// goroutine and checked on GOMAXPROCS goroutines.
func TestL1PassReplayOracle(t *testing.T) {
	type oracleCase struct {
		i     int
		cfg   Config
		refs  []trace.Ref
		split bool // a separateSides copy of case i
		other bool // a copy of case i that no replay takes
	}
	rng := rand.New(rand.NewPCG(12, 1994))
	split := rand.New(rand.NewPCG(12, 2025))
	other := rand.New(rand.NewPCG(12, 2029))
	var cases [2]int
	todo := make(chan oracleCase, 64)
	go func() {
		defer close(todo)
		for i := 0; cases[Conventional] < differentialCases || cases[Exclusive] < differentialCases; i++ {
			cfg, refs := randomCase(rng)
			if cfg.TwoLevel() {
				cases[cfg.Policy]++
			}
			todo <- oracleCase{i, cfg, refs, false, false}
			if cfg.TwoLevel() && cfg.Policy == Exclusive && split.IntN(2) == 0 {
				todo <- oracleCase{i, cfg, separateSides(refs), true, false}
			}
			k, c := other.IntN(4), cfg
			if k&1 != 0 && cfg.TwoLevel() {
				c.Policy = Inclusive
			}
			if k&2 != 0 {
				c.Writes = WriteThroughNoAllocate
			}
			if c != cfg {
				todo <- oracleCase{i, c, refs, false, true}
			}
		}
	}()
	type loopSum struct {
		st                            Stats
		cases, upDirty, residentVicts uint64
	}
	var (
		mu      sync.Mutex
		sum     [2]Stats
		upDirty uint64 // victims dirty only because they came up dirty
		loops   = map[string]*loopSum{"disjoint": {}, "probing": {}}
		// The copies under the inclusive policy and with write-through
		// stores: their counts, their back-invalidations (of dirty lines,
		// too) and the write-through copies' totals.
		nIncl, nWT, backInv, dirtyBackInv uint64
		wt                                Stats
		failed                            atomic.Bool
		wg                                sync.WaitGroup
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range todo {
				if failed.Load() {
					continue // drain, so the drawing goroutine ends
				}
				cfg := c.cfg
				var (
					f    *Follower
					loop string
					err  error
				)
				exclusive := cfg.TwoLevel() && cfg.Policy == Exclusive && ReplayEligible(cfg)
				if exclusive {
					f, loop, err = checkExclusiveLoop(cfg, c.refs)
				}
				var st Stats
				var ref *refHierarchy
				if err == nil {
					st, ref, err = checkThreeWay(cfg, c.refs, f)
				}
				if err != nil {
					failed.Store(true)
					t.Errorf("case %d (split %v), %s %s (L1I %s, L1D %s, L2 %s), %d refs: %v", c.i, c.split, cfg, cfg.Writes, cfg.L1I, cfg.L1D, cfg.L2, len(c.refs), err)
					continue
				}
				if c.other {
					mu.Lock()
					if cfg.Policy == Inclusive && cfg.TwoLevel() {
						nIncl++
						backInv += st.BackInvalidations
						dirtyBackInv += ref.dirtyBackInvalidations
					}
					if cfg.Writes == WriteThroughNoAllocate {
						nWT++
						wt.WriteThroughs += st.WriteThroughs
						wt.WriteBacksToL2 += st.WriteBacksToL2
						wt.WriteBacksOffChip += st.WriteBacksOffChip
					}
					mu.Unlock()
					continue
				}
				if !cfg.TwoLevel() {
					continue
				}
				mu.Lock()
				if exclusive {
					l := loops[loop]
					l.cases++
					l.st.L2Hits += st.L2Hits
					l.st.L2Misses += st.L2Misses
					l.st.WriteBacksToL2 += st.WriteBacksToL2
					l.st.WriteBacksOffChip += st.WriteBacksOffChip
					l.st.Swaps += st.Swaps
					l.st.VictimsToL2 += st.VictimsToL2
					l.upDirty += ref.l1i.upDirtyOut + ref.l1d.upDirtyOut
					l.residentVicts += ref.residentVictims
				}
				if !c.split {
					s := &sum[cfg.Policy]
					s.L1IHits += st.L1IHits
					s.L1DHits += st.L1DHits
					s.L2Hits += st.L2Hits
					s.L2Misses += st.L2Misses
					s.WriteBacksToL2 += st.WriteBacksToL2
					s.WriteBacksOffChip += st.WriteBacksOffChip
					s.Swaps += st.Swaps
					s.VictimsToL2 += st.VictimsToL2
					upDirty += ref.l1i.upDirtyOut + ref.l1d.upDirtyOut
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// A table that never reaches a path proves nothing about it.
	for _, p := range []Policy{Conventional, Exclusive} {
		s := sum[p]
		if s.L1IHits == 0 || s.L1DHits == 0 || s.L2Hits == 0 || s.L2Misses == 0 ||
			s.WriteBacksToL2 == 0 || s.WriteBacksOffChip == 0 {
			t.Errorf("the %s table leaves a path unexercised: %+v", p, s)
		}
	}
	if sum[Exclusive].Swaps == 0 || sum[Exclusive].VictimsToL2 == 0 || upDirty == 0 {
		t.Errorf("the exclusive table never swaps, transfers a victim or evicts a line that came up dirty: %+v, %d came up dirty", sum[Exclusive], upDirty)
	}
	for name, l := range loops {
		s := l.st
		if s.L2Hits == 0 || s.L2Misses == 0 || s.Swaps == 0 || s.VictimsToL2 == 0 ||
			s.WriteBacksToL2 == 0 || s.WriteBacksOffChip == 0 || l.upDirty == 0 {
			t.Errorf("the %s exclusive loop leaves a path unexercised over %d cases: %+v, %d came up dirty", name, l.cases, s, l.upDirty)
		}
		t.Logf("%s exclusive loop: %d cases, %+v; %d victims dirty only from the L2, %d victims already in the L2", name, l.cases, s, l.upDirty, l.residentVicts)
	}
	if loops["probing"].residentVicts == 0 {
		t.Error("the probing exclusive loop never finds its victim in the L2")
	}
	if backInv == 0 || dirtyBackInv == 0 {
		t.Errorf("%d inclusive copies back-invalidate %d L1 lines, %d of them dirty", nIncl, backInv, dirtyBackInv)
	}
	if wt.WriteThroughs == 0 || wt.WriteBacksToL2 == 0 || wt.WriteBacksOffChip == 0 {
		t.Errorf("the write-through copies leave a path unexercised: %+v", wt)
	}
	t.Logf("%d inclusive copies: %d back-invalidations, %d of dirty lines; %d write-through copies: %+v", nIncl, backInv, dirtyBackInv, nWT, wt)
	if n := loops["disjoint"].residentVicts; n != 0 {
		t.Errorf("the reference simulator found %d victims already in the L2 on traces whose sides share no line", n)
	}
	t.Logf("conventional totals over %d cases: %+v", cases[Conventional], sum[Conventional])
	t.Logf("exclusive totals over %d cases: %+v; %d victims dirty only from the L2", cases[Exclusive], sum[Exclusive], upDirty)
}

// widthCases is how many cases TestL1PassReplayWidthOracle checks.
const widthCases = 1500

// randomWidthCase draws a case with an L2 of any width: L1s and a trace
// as randomCase draws them, and an L2 of 1–256 ways in at most 512 lines
// (one set, a fully associative L2, in about a quarter of the cases)
// under any replacement policy and either hierarchy policy.
func randomWidthCase(rng *rand.Rand) (Config, []trace.Ref) {
	line := 1 << rng.IntN(6)
	cfg := randomConfig(rng, line)
	wayLog := rng.IntN(9)
	sets := 1 << rng.IntN(min(4, 10-wayLog))
	cfg.L2 = cache.Config{
		Size:     int64(sets << wayLog * line),
		LineSize: line,
		Assoc:    1 << wayLog,
		Policy:   cache.ReplacementPolicy(rng.IntN(3)),
	}
	cfg.Policy = Policy(rng.IntN(2))
	return cfg, randomTrace(rng, line)
}

// replayPath names the path a replay into an L2 of cfg takes: the
// narrow kernel's one-match probe, by ways, or the general probe.
func replayPath(cfg cache.Config) string {
	if newL2Kernel(cfg).narrow() {
		return fmt.Sprintf("%d-way", cfg.Assoc)
	}
	if cfg.Sets() == 1 {
		return "fully associative"
	}
	return "wide"
}

// TestL1PassReplayWidthOracle extends TestL1PassReplayOracle to L2s of
// up to 256 ways and to fully associative L2s: a seeded table on which
// the pass and replay, System.Run and the naive reference simulator must
// agree on every counter. The table must take every path of the L2
// kernel (each narrow width, sets wider than one probe window, and one
// set of any width) under both policies and every replacement policy,
// with L2 hits and evictions on each.
func TestL1PassReplayWidthOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1994))
	type key struct {
		path   string
		policy Policy
		repl   cache.ReplacementPolicy
	}
	hits, evicted := map[key]uint64{}, map[key]uint64{}
	check := func(i int, cfg Config, refs []trace.Ref) {
		t.Helper()
		var f *Follower
		path := replayPath(cfg.L2)
		if cfg.Policy == Exclusive {
			var loop string
			var err error
			if f, loop, err = checkExclusiveLoop(cfg, refs); err != nil {
				t.Fatalf("case %d, %s (L1I %s, L1D %s, L2 %s): %v", i, cfg, cfg.L1I, cfg.L1D, cfg.L2, err)
			}
			if loop == "disjoint" {
				path += " disjoint"
			}
		}
		st, ref, err := checkThreeWay(cfg, refs, f)
		if err != nil {
			t.Fatalf("case %d, %s (L1I %s, L1D %s, L2 %s), %d refs: %v", i, cfg, cfg.L1I, cfg.L1D, cfg.L2, len(refs), err)
		}
		k := key{path, cfg.Policy, cfg.L2.Policy}
		hits[k] += st.L2Hits
		evicted[k] += ref.l2.evicted
	}
	// As in TestL1PassReplayOracle, a second source adds a separateSides
	// copy of half the exclusive cases.
	split := rand.New(rand.NewPCG(21, 2025))
	for i := 0; i < widthCases; i++ {
		cfg, refs := randomWidthCase(rng)
		check(i, cfg, refs)
		if cfg.Policy == Exclusive && split.IntN(2) == 0 {
			check(i, cfg, separateSides(refs))
		}
	}
	type cell struct {
		path   string
		policy Policy
	}
	var cells []cell
	for _, path := range []string{"1-way", "2-way", "4-way", "wide", "fully associative"} {
		cells = append(cells, cell{path, Conventional}, cell{path, Exclusive})
	}
	for _, path := range []string{"1-way", "2-way", "4-way"} {
		cells = append(cells, cell{path + " disjoint", Exclusive})
	}
	for _, c := range cells {
		for _, repl := range []cache.ReplacementPolicy{cache.Random, cache.LRU, cache.FIFO} {
			if k := (key{c.path, c.policy, repl}); hits[k] == 0 || evicted[k] == 0 {
				t.Errorf("%s %s L2s under %s replacement: %d hits, %d evictions", c.path, c.policy, repl, hits[k], evicted[k])
			}
		}
	}
}

// TestL1PassReplaySharedLine is a hand-built exclusive case in which a
// line is both fetched and loaded, so it sits in both L1s: the L1I's
// victim puts it in the L2 while the L1D still holds it, and the L1D's
// victim then finds it there. The pass must take the probing loop and
// match the reference simulator, and the unprobed loop, run on the same
// pass, must get it wrong: it fills a second copy, which a later load
// hits.
func TestL1PassReplaySharedLine(t *testing.T) {
	l1 := cache.Config{Size: 16, LineSize: 16, Assoc: 1}
	cfg := Config{
		L1I: l1, L1D: l1, Policy: Exclusive,
		L2: cache.Config{Size: 8 * 16, LineSize: 16, Assoc: 4, Policy: cache.Random},
	}
	const x, y, z = 0x100, 0x200, 0x300
	refs := []trace.Ref{
		{Kind: trace.Instr, Addr: x}, // x into the L1I
		{Kind: trace.Data, Addr: x},  // and into the L1D
		{Kind: trace.Instr, Addr: y}, // the L1I's victim x moves down
		{Kind: trace.Data, Addr: z},  // the L1D's victim x is already there
		{Kind: trace.Instr, Addr: x}, // x moves up from the L2
		{Kind: trace.Data, Addr: x},  // and misses it now
	}
	f, loop, err := checkExclusiveLoop(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	if loop != "probing" || disjoint(&f.icache, &f.dcache) {
		t.Fatalf("a pass with a shared line takes the %s loop (disjoint %v)", loop, disjoint(&f.icache, &f.dcache))
	}
	chunks := slices.Clone(f.chunks) // the follower frees them as it walks
	want, ref, err := checkThreeWay(cfg, refs, f)
	if err != nil {
		t.Fatal(err)
	}
	if ref.residentVictims != 1 || want.L2Hits != 1 {
		t.Fatalf("the case is not the one built: %d victims already in the L2, %d L2 hits", ref.residentVictims, want.L2Hits)
	}
	unprobed := newExclusiveReplay(cfg, newL2Kernel(cfg.L2))
	for i := range chunks {
		unprobed.stepDisjoint(&chunks[i])
	}
	if unprobed.hits == want.L2Hits {
		t.Errorf("the unprobed loop matches the oracle's %d L2 hits on a shared line", want.L2Hits)
	}
}

// FuzzL1PassReplay is the fuzzing form of TestL1PassReplayOracle. The
// geometry comes from the small integers (policy picks the L2
// replacement policy modulo 3 and the hierarchy policy, conventional or
// exclusive, from the rest) and the trace from data, three bytes per
// reference: a kind byte whose high bits pick a high address region, and
// a 16-bit offset. A wayLog below 128 gives 1–8 ways; with its top bit
// set it gives 16–256, so that the kernel's general probe is fuzzed too
// (with l2Log%9 == 1, a fully associative L2). A policy of 240 or more
// with bit 0 set picks the inclusive policy instead, and one with bit 1
// set write-through stores; neither replays, so those inputs check
// System.Run against the reference simulator alone.
func FuzzL1PassReplay(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(6), uint8(2), uint8(0), []byte("\x00\x00\x10\x01\x00\x20\x02\x10\x00\x00\x00\x10"))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), []byte("\x02\x01\x00\x02\x02\x00\x02\x01\x00"))
	f.Add(uint8(7), uint8(5), uint8(3), uint8(3), uint8(2), []byte("\xfe\xff\xff\x02\x00\x00\xfe\xff\xff"))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(1), uint8(5), []byte("\x02\x00\x00\x01\x01\x00\x01\x00\x00\x01\x01\x00\x01\x02\x00"))
	f.Add(uint8(1), uint8(4), uint8(4), uint8(2), uint8(4), []byte("\x00\x00\x10\x02\x00\x10\x00\x00\x20\x01\x00\x10\x00\x00\x10"))
	// Wide L2s of one-byte lines below one-line L1s: 2 sets of 16 ways
	// under LRU, a fully associative 256-way FIFO L2 under the exclusive
	// policy, and 2 sets of 64 random ways under the exclusive policy.
	f.Add(uint8(0), uint8(0), uint8(2), uint8(130), uint8(1), wideSeed())
	f.Add(uint8(0), uint8(0), uint8(1), uint8(129), uint8(5), wideSeed())
	f.Add(uint8(0), uint8(0), uint8(2), uint8(132), uint8(3), wideSeed())
	// Disjoint traces on narrow exclusive L2s, which replay on the loop
	// that skips the victim probe: 4 L1 lines of 16 bytes over a 4-way
	// random, a direct-mapped LRU and a 2-way FIFO L2.
	f.Add(uint8(2), uint8(4), uint8(4), uint8(2), uint8(3), disjointSeed())
	f.Add(uint8(2), uint8(4), uint8(5), uint8(0), uint8(4), disjointSeed())
	f.Add(uint8(2), uint8(4), uint8(5), uint8(1), uint8(5), disjointSeed())
	// An inclusive 2-way LRU L2 of 4 lines below L1s of 2 lines: a
	// store, then two fetches that evict the stored line from the L2 and
	// so back-invalidate its dirty L1D copy, then the disjoint trace.
	// And write-through stores into a 4-way random L2 of 32 lines: two
	// that find the line's L2 copy, one in the L1D and one not, and one
	// that finds none.
	f.Add(uint8(1), uint8(4), uint8(2), uint8(1), uint8(241), append([]byte("\x02\x00\x00\x00\x20\x00\x00\x40\x00\x01\x00\x00"), disjointSeed()...))
	f.Add(uint8(2), uint8(4), uint8(4), uint8(2), uint8(246), []byte("\x01\x00\x00\x02\x00\x00\x01\x00\x01\x02\x00\x00\x02\x00\x02"))
	f.Fuzz(func(t *testing.T, l1Log, lineLog, l2Log, wayLog, policy uint8, data []byte) {
		line := 1 << (lineLog % 6)
		assoc := 1 << (wayLog % 4)
		if wayLog >= 128 {
			assoc = 16 << (wayLog % 5)
		}
		cfg := Config{
			L1I: cache.Config{Size: int64(line << (l1Log % 8)), LineSize: line, Assoc: 1},
			L1D: cache.Config{Size: int64(line << (l1Log % 8)), LineSize: line, Assoc: 1},
		}
		if l2Log%9 != 0 {
			cfg.L2 = cache.Config{
				Size:     int64(assoc * line << (l2Log%9 - 1)),
				LineSize: line, Assoc: assoc,
				Policy: cache.ReplacementPolicy(policy % 3),
			}
			cfg.Policy = Policy(policy / 3 % 2)
			if policy >= 240 && policy&1 != 0 {
				cfg.Policy = Inclusive
			}
		}
		if policy >= 240 && policy&2 != 0 {
			cfg.Writes = WriteThroughNoAllocate
		}
		refs := make([]trace.Ref, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			refs = append(refs, trace.Ref{
				Kind: trace.Kind(data[0] % 3),
				Addr: uint64(data[0]>>2)<<40 | uint64(binary.LittleEndian.Uint16(data[1:])),
			})
		}
		var f *Follower
		if cfg.TwoLevel() && cfg.Policy == Exclusive && ReplayEligible(cfg) {
			var err error
			if f, _, err = checkExclusiveLoop(cfg, refs); err != nil {
				t.Fatalf("%s (L1 %s, L2 %s), %d refs: %v", cfg, cfg.L1I, cfg.L2, len(refs), err)
			}
		}
		if _, _, err := checkThreeWay(cfg, refs, f); err != nil {
			t.Fatalf("%s (L1 %s, L2 %s), %d refs: %v", cfg, cfg.L1I, cfg.L2, len(refs), err)
		}
	})
}

// disjointSeed is the trace of the fuzz seeds with disjoint sides, in
// their three bytes per reference: 120 instruction fetches walking 256
// bytes of code in the low region, each trailed by a load or, every
// third, a store to one of 24 lines of 16 bytes in the region above it,
// drawn so that they collide in small L1s and L2s.
func disjointSeed() []byte {
	var b []byte
	for i := 0; i < 120; i++ {
		pc := uint16(i * 4 % 256)
		b = append(b, byte(trace.Instr), byte(pc), byte(pc>>8))
		kind := trace.Data
		if i%3 == 0 {
			kind = trace.Write
		}
		// The kind byte is the kind modulo 3, and 1 when shifted right
		// by 2: 4 is a load and 5 a store in region 1.
		addr := uint16(i * 7 % 24 * 16)
		b = append(b, 3+byte(kind), byte(addr), byte(addr>>8))
	}
	return b
}

// wideSeed is the trace of the fuzz seeds with wide L2s, in their three
// bytes per reference: 40 lines of data, every third one written, then
// ten of them again and two instruction fetches. With one-byte lines an
// L2 of 32 lines or fewer both hits and evicts on it.
func wideSeed() []byte {
	var b []byte
	for i := 0; i < 40; i++ {
		kind := trace.Data
		if i%3 == 0 {
			kind = trace.Write
		}
		b = append(b, byte(kind), byte(i), 0)
	}
	for i := 0; i < 30; i += 3 {
		b = append(b, byte(trace.Data), byte(i), 0)
	}
	return append(b, byte(trace.Instr), 5, 0, byte(trace.Instr), 41, 0)
}

// recordCases is how many recordings TestL1RecordOracle checks.
const recordCases = 1000

// randomRecording draws one case of the one-walk recorder: 1–9
// geometries as randomCase draws them, half of them with the first one's
// line size so that they share its chains, over one randomCase trace.
func randomRecording(rng *rand.Rand) ([]Config, []trace.Ref) {
	line := 1 << rng.IntN(6)
	cfgs := []Config{randomConfig(rng, line)}
	for k := rng.IntN(9); k > 0; k-- {
		l := line
		if rng.IntN(2) == 0 {
			l = 1 << rng.IntN(6)
		}
		cfgs = append(cfgs, randomConfig(rng, l))
	}
	return cfgs, randomTrace(rng, line)
}

// checkRecording records every geometry of cfgs in one walk over refs,
// fed in chunks of the given size, and checks each pass's replay against
// System.Run and the reference simulator. It reports how many sides of
// the walk had several chains and how many of its caches served several
// passes.
func checkRecording(cfgs []Config, refs []trace.Ref, chunk int) (chains, shared int, err error) {
	var groups [][]Config
	for _, cfg := range cfgs {
		groups = append(groups, threeWayGroup(cfg))
	}
	rec, err := NewL1Recorder(groups)
	if err != nil {
		return 0, 0, err
	}
	for _, side := range rec.sides {
		if len(side) > 1 {
			chains++
		}
		for _, ch := range side {
			for _, c := range ch.caches {
				if len(c.users) > 1 {
					shared++
				}
			}
		}
	}
	fols, err := recordGroups(groups, refs, chunk, 0)
	if err != nil {
		return chains, shared, err
	}
	for i, f := range fols {
		cfg := cfgs[i]
		if _, _, err := checkThreeWay(cfg, refs, f); err != nil {
			return chains, shared, fmt.Errorf("geometry %d of %d, %s (L1I %s, L1D %s, L2 %s): %w", i, len(cfgs), cfg, cfg.L1I, cfg.L1D, cfg.L2, err)
		}
	}
	return chains, shared, nil
}

// TestL1RecordOracle is the differential test of the one-walk recorder:
// a seeded table of geometry sets and traces, each recorded in one walk
// fed in random chunks, on which every pass's replay, System.Run and the
// naive reference simulator must agree on every counter. The table must
// reach sides with several line sizes and caches shared by several
// geometries.
func TestL1RecordOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1989))
	var chains, shared int
	for i := 0; i < recordCases; i++ {
		cfgs, refs := randomRecording(rng)
		c, s, err := checkRecording(cfgs, refs, 1+rng.IntN(len(refs)))
		if err != nil {
			t.Fatalf("case %d, %d refs: %v", i, len(refs), err)
		}
		chains += c
		shared += s
	}
	if chains == 0 || shared == 0 {
		t.Errorf("%d sides with several line sizes, %d shared caches: a path is unexercised", chains, shared)
	}
}

// FuzzL1Record is the fuzzing form of TestL1RecordOracle. Each five
// bytes of geo draw one of up to 9 geometries: the line size, the L1I
// and L1D sizes, the L2 size (0 for none), and the L2's ways, replacement
// policy and hierarchy policy. The ways are 1–8, or 16–256 when the
// fifth byte has its top bit set. The trace comes from data, three bytes
// per reference: a kind byte whose high bits set the top bits of the
// address, and a 16-bit offset. The walk is fed in chunks of 1–8
// references.
func FuzzL1Record(f *testing.F) {
	f.Add([]byte("\x04\x00\x00\x02\x01"), []byte("\x00\x00\x10\x01\x00\x20\x02\x10\x00\x00\x00\x10"))
	f.Add([]byte("\x00\x00\x01\x03\x00\x00\x02\x02\x04\x0d\x00\x01\x00\x00\x00"), []byte("\x02\x01\x00\x02\x02\x00\x02\x01\x00\xfe\xff\xff"))
	f.Add([]byte("\x01\x03\x03\x05\x06\x02\x03\x03\x05\x06\x01\x05\x07\x00\x00\x03\x00\x00\x08\x17"), []byte("\xfe\xff\xff\x02\x00\x00\xfe\xff\xff\x03\x10\x00\x02\x10\x00"))
	// Wide L2s of one-byte lines beside a narrow one, in one walk: a
	// fully associative 16-way L2 under LRU, 2 sets of 32 FIFO ways under
	// the exclusive policy, and a direct-mapped L2 of 4 lines.
	f.Add([]byte("\x00\x00\x00\x01\x96\x00\x01\x01\x02\x8d\x00\x00\x01\x03\x00"), wideSeed())
	// A disjoint trace (its data in the region above its code) on a
	// 4-way random exclusive L2 and a direct-mapped conventional one.
	f.Add([]byte("\x04\x02\x02\x04\x0e\x04\x02\x03\x05\x00"), disjointSeed())
	f.Fuzz(func(t *testing.T, geo, data []byte) {
		var cfgs []Config
		for ; len(geo) >= 5 && len(cfgs) < 9; geo = geo[5:] {
			line := 1 << (geo[0] % 6)
			cfg := Config{
				L1I: cache.Config{Size: int64(line << (geo[1] % 8)), LineSize: line, Assoc: 1},
				L1D: cache.Config{Size: int64(line << (geo[2] % 8)), LineSize: line, Assoc: 1},
			}
			if geo[3]%9 != 0 {
				assoc := 1 << (geo[4] % 4)
				if geo[4] >= 128 {
					assoc = 16 << (geo[4] % 5)
				}
				cfg.L2 = cache.Config{
					Size:     int64(assoc * line << (geo[3]%9 - 1)),
					LineSize: line, Assoc: assoc,
					Policy: cache.ReplacementPolicy(geo[4] / 4 % 3),
				}
				cfg.Policy = Policy(geo[4] / 12 % 2)
			}
			cfgs = append(cfgs, cfg)
		}
		if len(cfgs) == 0 {
			return
		}
		refs := make([]trace.Ref, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			refs = append(refs, trace.Ref{
				Kind: trace.Kind(data[0] % 3),
				Addr: uint64(data[0]>>2)<<58 | uint64(binary.LittleEndian.Uint16(data[1:])),
			})
		}
		if _, _, err := checkRecording(cfgs, refs, 1+len(refs)%8); err != nil {
			t.Fatalf("%d refs: %v", len(refs), err)
		}
	})
}

// TestL1PassReplayInstrument checks that a replay fills a registry as
// System.Instrument does, under both policies: every counter equal,
// including the policy counters a hierarchy leaves at zero and the L1
// dirty write-backs of lines that came up dirty from an exclusive L2.
func TestL1PassReplayInstrument(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var exclusive, upDirty, swaps uint64
	for i := 0; i < 400; i++ {
		cfg, refs := randomCase(rng)
		want := obs.NewRegistry()
		sys := NewSystem(cfg)
		sys.Instrument(want)
		sys.Run(trace.NewSliceStream(refs))

		got := obs.NewRegistry()
		fols, err := recordGroups([][]Config{{cfg}}, refs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := drain(fols[0])[0]
		res.Instrument(got)
		w, g := want.Snapshot().Counters, got.Snapshot().Counters
		if len(w) != len(g) {
			t.Fatalf("case %d: the replay registers %d counters, System.Instrument %d", i, len(g), len(w))
		}
		for name, v := range w {
			if gv, ok := g[name]; !ok || gv != v {
				t.Fatalf("case %d, %s: %s = %d, want %d", i, cfg, name, gv, v)
			}
		}
		// The per-cache counters must also be the reference simulator's.
		_, ref := refRun(cfg, refs)
		for prefix, c := range map[string]*refCache{"cache_l1i": ref.l1i, "cache_l1d": ref.l1d, "cache_l2": ref.l2} {
			if c == nil {
				continue
			}
			for suffix, v := range map[string]uint64{"_hits_total": c.hits, "_misses_total": c.misses, "_evictions_total": c.evicted, "_dirty_writebacks_total": c.dirtyOut} {
				if gv := g[prefix+suffix]; gv != v {
					t.Fatalf("case %d, %s: %s%s = %d, oracle %d", i, cfg, prefix, suffix, gv, v)
				}
			}
		}
		if cfg.TwoLevel() && cfg.Policy == Exclusive {
			exclusive++
			upDirty += ref.l1i.upDirtyOut + ref.l1d.upDirtyOut
			swaps += g[metricSwaps]
		}
	}
	if exclusive == 0 || upDirty == 0 || swaps == 0 {
		t.Errorf("%d exclusive cases, %d victims that came up dirty, %d swaps: a path is unexercised", exclusive, upDirty, swaps)
	}
}

// TestL1PassContext checks that the recorder and a follower waiting for
// it stop on a done context.
func TestL1PassContext(t *testing.T) {
	cfg, refs := randomCase(rand.New(rand.NewPCG(5, 6)))
	cfg.L2 = cache.Config{Size: 1 << 10, LineSize: cfg.L1I.LineSize, Assoc: 1}
	cfg.Policy = Exclusive
	done, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := NewL1Recorder([][]Config{{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(done, refs); !errors.Is(err, context.Canceled) {
		t.Errorf("Record on a cancelled context: %v", err)
	}
	if _, err := rec.Followers()[0].Wait(done); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait on a cancelled context: %v", err)
	}
}

// TestL1PassRejects checks the eligibility rule and the L1 match of a
// group.
func TestL1PassRejects(t *testing.T) {
	cfg := Config{
		L1I: cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1},
		L2:  cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 4},
	}
	sa := cfg
	sa.L1D.Assoc = 2
	if _, err := NewL1Recorder([][]Config{{sa}}); err == nil {
		t.Error("NewL1Recorder accepted a set-associative L1")
	}
	if _, err := NewL1Recorder([][]Config{{cfg}, {}}); err == nil {
		t.Error("NewL1Recorder accepted an empty group")
	}
	other := cfg
	other.L1D.Size = 2 << 10
	excl, incl, wt := cfg, cfg, cfg
	excl.Policy, incl.Policy, wt.Writes = Exclusive, Inclusive, WriteThroughNoAllocate
	for _, c := range []Config{sa, other, incl, wt} {
		if _, err := NewL1Recorder([][]Config{{cfg, c}}); err == nil {
			t.Errorf("a group of %s took %s (L1D %s, policy %s, writes %s)", cfg, c, c.L1D, c.Policy, c.Writes)
		}
	}
	if _, err := NewL1Recorder([][]Config{{cfg, excl}}); err != nil {
		t.Errorf("a group rejected an exclusive hierarchy: %v", err)
	}
	if !ReplayEligible(cfg) || !ReplayEligible(excl) || ReplayEligible(incl) || ReplayEligible(wt) || ReplayEligible(sa) {
		t.Error("ReplayEligible disagrees with the eligibility rule")
	}
	// An inclusive single-level hierarchy is just its L1s.
	single := incl
	single.L2 = cache.Config{}
	if !ReplayEligible(single) {
		t.Error("a single-level hierarchy is eligible whatever its policy field")
	}
}
