package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
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

// checkThreeWay compares every Stats field of the reference simulator,
// System.Run, and an L1 pass replayed into cfg and into the single-level
// hierarchy with the same L1s. It returns the reference simulator's
// statistics and hierarchy.
//
// pass is the L1 pass of cfg's L1s over refs, or nil to record it with
// RecordL1.
func checkThreeWay(cfg Config, refs []trace.Ref, pass *L1Pass) (Stats, *refHierarchy, error) {
	want, ref := refRun(cfg, refs)
	if got := NewSystem(cfg).Run(trace.NewSliceStream(refs)); got != want {
		return want, ref, fmt.Errorf("System.Run %+v\n oracle %+v", got, want)
	}
	ctx := context.Background()
	if pass == nil {
		var err error
		if pass, err = RecordL1(ctx, cfg, refs); err != nil {
			return want, ref, err
		}
	}
	if got, err := pass.Replay(ctx, cfg, nil); err != nil || got != want {
		return want, ref, fmt.Errorf("Replay %+v (err %v)\n oracle %+v", got, err, want)
	}
	single := cfg
	single.L2 = cache.Config{}
	wantSingle, _ := refRun(single, refs)
	if got, err := pass.Replay(ctx, single, nil); err != nil || got != wantSingle {
		return want, ref, fmt.Errorf("single-level Replay %+v (err %v)\n oracle %+v", got, err, wantSingle)
	}
	return want, ref, nil
}

// TestL1PassReplayOracle is the differential test of the L1-once kernel:
// a seeded table of random geometries, policies and traces on which the
// pass and replay, System.Run and the naive reference simulator must
// agree on every counter. It runs until it has checked differentialCases
// two-level hierarchies under each of the conventional and exclusive
// policies. The cases are drawn in order on one goroutine and checked
// on GOMAXPROCS goroutines.
func TestL1PassReplayOracle(t *testing.T) {
	type oracleCase struct {
		i    int
		cfg  Config
		refs []trace.Ref
	}
	rng := rand.New(rand.NewPCG(12, 1994))
	var cases [2]int
	todo := make(chan oracleCase, 64)
	go func() {
		defer close(todo)
		for i := 0; cases[Conventional] < differentialCases || cases[Exclusive] < differentialCases; i++ {
			cfg, refs := randomCase(rng)
			if cfg.TwoLevel() {
				cases[cfg.Policy]++
			}
			todo <- oracleCase{i, cfg, refs}
		}
	}()
	var (
		mu      sync.Mutex
		sum     [2]Stats
		upDirty uint64 // victims dirty only because they came up dirty
		failed  atomic.Bool
		wg      sync.WaitGroup
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
				st, ref, err := checkThreeWay(cfg, c.refs, nil)
				if err != nil {
					failed.Store(true)
					t.Errorf("case %d, %s (L1I %s, L1D %s, L2 %s), %d refs: %v", c.i, cfg, cfg.L1I, cfg.L1D, cfg.L2, len(c.refs), err)
					continue
				}
				if !cfg.TwoLevel() {
					continue
				}
				mu.Lock()
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
	for i := 0; i < widthCases; i++ {
		cfg, refs := randomWidthCase(rng)
		st, ref, err := checkThreeWay(cfg, refs, nil)
		if err != nil {
			t.Fatalf("case %d, %s (L1I %s, L1D %s, L2 %s), %d refs: %v", i, cfg, cfg.L1I, cfg.L1D, cfg.L2, len(refs), err)
		}
		k := key{replayPath(cfg.L2), cfg.Policy, cfg.L2.Policy}
		hits[k] += st.L2Hits
		evicted[k] += ref.l2.evicted
	}
	for _, path := range []string{"1-way", "2-way", "4-way", "wide", "fully associative"} {
		for _, policy := range []Policy{Conventional, Exclusive} {
			for _, repl := range []cache.ReplacementPolicy{cache.Random, cache.LRU, cache.FIFO} {
				if k := (key{path, policy, repl}); hits[k] == 0 || evicted[k] == 0 {
					t.Errorf("%s %s L2s under %s replacement: %d hits, %d evictions", path, policy, repl, hits[k], evicted[k])
				}
			}
		}
	}
}

// TestL1PassReplayConcurrent replays one shared pass from several
// goroutines at once, each into L2s of its own geometry and policy, and
// requires every result to equal System.Run's. Under the race detector
// it also checks that a replay writes nothing the pass shares.
func TestL1PassReplayConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1994))
	const line = 16
	var refs []trace.Ref
	for len(refs) < 5000 {
		refs = append(refs, randomTrace(rng, line)...)
	}
	l1 := cache.Config{Size: 32 * line, LineSize: line, Assoc: 1}
	pass, err := RecordL1(context.Background(), Config{L1I: l1, L1D: l1}, refs)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, ways := range []int{1, 2, 4, 8, 64} {
		for _, policy := range []Policy{Conventional, Exclusive} {
			cfgs = append(cfgs, Config{
				L1I: l1, L1D: l1, Policy: policy,
				L2: cache.Config{Size: 256 * line, LineSize: line, Assoc: ways, Policy: cache.ReplacementPolicy(ways % 3)},
			})
		}
	}
	want := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = NewSystem(cfg).Run(trace.NewSliceStream(refs))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got, err := pass.Replay(context.Background(), cfg, nil); err != nil || got != want[i] {
					errs[i] = fmt.Errorf("%s (L2 %s): Replay %+v (err %v)\n System.Run %+v", cfg, cfg.L2, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// FuzzL1PassReplay is the fuzzing form of TestL1PassReplayOracle. The
// geometry comes from the small integers (policy picks the L2
// replacement policy modulo 3 and the hierarchy policy, conventional or
// exclusive, from the rest) and the trace from data, three bytes per
// reference: a kind byte whose high bits pick a high address region, and
// a 16-bit offset. A wayLog below 128 gives 1–8 ways; with its top bit
// set it gives 16–256, so that the kernel's general probe is fuzzed too
// (with l2Log%9 == 1, a fully associative L2).
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
		}
		refs := make([]trace.Ref, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			refs = append(refs, trace.Ref{
				Kind: trace.Kind(data[0] % 3),
				Addr: uint64(data[0]>>2)<<40 | uint64(binary.LittleEndian.Uint16(data[1:])),
			})
		}
		if _, _, err := checkThreeWay(cfg, refs, nil); err != nil {
			t.Fatalf("%s (L1 %s, L2 %s), %d refs: %v", cfg, cfg.L1I, cfg.L2, len(refs), err)
		}
	})
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
	rec, err := NewL1Recorder(cfgs)
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
	for rest := refs; len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
		if err := rec.Record(context.Background(), rest[:min(chunk, len(rest))]); err != nil {
			return chains, shared, err
		}
	}
	for i, pass := range rec.Finish() {
		cfg := cfgs[i]
		if _, _, err := checkThreeWay(cfg, refs, pass); err != nil {
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

// TestL1PassReplayInstrument checks that Replay fills a registry as
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
		pass, err := RecordL1(context.Background(), cfg, refs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pass.Replay(context.Background(), cfg, got); err != nil {
			t.Fatal(err)
		}
		w, g := want.Snapshot().Counters, got.Snapshot().Counters
		if len(w) != len(g) {
			t.Fatalf("case %d: Replay registers %d counters, System.Instrument %d", i, len(g), len(w))
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

// TestL1PassContext checks that both loops stop on a done context.
func TestL1PassContext(t *testing.T) {
	cfg, refs := randomCase(rand.New(rand.NewPCG(5, 6)))
	cfg.L2 = cache.Config{Size: 1 << 10, LineSize: cfg.L1I.LineSize, Assoc: 1}
	cfg.Policy = Exclusive
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecordL1(done, cfg, refs); !errors.Is(err, context.Canceled) {
		t.Errorf("RecordL1 on a cancelled context: %v", err)
	}
	pass, err := RecordL1(context.Background(), cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pass.Replay(done, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Replay on a cancelled context: %v", err)
	}
}

// TestL1PassRejects checks the eligibility rule and the L1 match.
func TestL1PassRejects(t *testing.T) {
	cfg := Config{
		L1I: cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1},
		L2:  cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 4},
	}
	refs := []trace.Ref{{Kind: trace.Write, Addr: 64}}
	pass, err := RecordL1(context.Background(), cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	sa := cfg
	sa.L1D.Assoc = 2
	if _, err := RecordL1(context.Background(), sa, refs); err == nil {
		t.Error("RecordL1 accepted a set-associative L1")
	}
	other := cfg
	other.L1D.Size = 2 << 10
	excl, incl, wt := cfg, cfg, cfg
	excl.Policy, incl.Policy, wt.Writes = Exclusive, Inclusive, WriteThroughNoAllocate
	for _, c := range []Config{sa, other, incl, wt} {
		if _, err := pass.Replay(context.Background(), c, nil); err == nil {
			t.Errorf("Replay accepted %s (L1D %s, policy %s, writes %s)", c, c.L1D, c.Policy, c.Writes)
		}
	}
	if _, err := pass.Replay(context.Background(), excl, nil); err != nil {
		t.Errorf("Replay rejected an exclusive hierarchy: %v", err)
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
