package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// differentialCases is the size of the seeded table TestL1PassReplayOracle
// runs in plain go test.
const differentialCases = 10_000

// randomCase draws one differential case: direct-mapped L1s of 1–128
// lines (the two sizes usually equal), lines of 1–32 bytes, and, in four
// cases of five, an L2 of 1–8 ways × {random, LRU, FIFO} with up to 128
// sets. The trace has 1–1500 references over a footprint of 1–4096
// lines, with drawn instruction and store fractions and a mix of
// sequential runs and random jumps.
func randomCase(rng *rand.Rand) (Config, []trace.Ref) {
	line := 1 << rng.IntN(6)
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
	}

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
	return cfg, refs
}

// checkThreeWay compares every Stats field of the reference simulator,
// System.Run, and an L1 pass replayed into cfg and into the single-level
// hierarchy with the same L1s.
func checkThreeWay(cfg Config, refs []trace.Ref) (Stats, error) {
	want, _ := refRun(cfg, refs)
	if got := NewSystem(cfg).Run(trace.NewSliceStream(refs)); got != want {
		return want, fmt.Errorf("System.Run %+v\n oracle %+v", got, want)
	}
	ctx := context.Background()
	pass, err := RecordL1(ctx, cfg, refs)
	if err != nil {
		return want, err
	}
	if got, err := pass.Replay(ctx, cfg, nil); err != nil || got != want {
		return want, fmt.Errorf("Replay %+v (err %v)\n oracle %+v", got, err, want)
	}
	single := cfg
	single.L2 = cache.Config{}
	wantSingle, _ := refRun(single, refs)
	if got, err := pass.Replay(ctx, single, nil); err != nil || got != wantSingle {
		return want, fmt.Errorf("single-level Replay %+v (err %v)\n oracle %+v", got, err, wantSingle)
	}
	return want, nil
}

// TestL1PassReplayOracle is the differential test of the L1-once kernel:
// a seeded table of random geometries, policies and traces on which the
// pass and replay, System.Run and the naive reference simulator must
// agree on every counter.
func TestL1PassReplayOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1994))
	var sum Stats
	for i := 0; i < differentialCases; i++ {
		cfg, refs := randomCase(rng)
		st, err := checkThreeWay(cfg, refs)
		if err != nil {
			t.Fatalf("case %d, %s (L1I %s, L1D %s, L2 %s), %d refs: %v", i, cfg, cfg.L1I, cfg.L1D, cfg.L2, len(refs), err)
		}
		sum.L1IHits += st.L1IHits
		sum.L1DHits += st.L1DHits
		sum.L2Hits += st.L2Hits
		sum.L2Misses += st.L2Misses
		sum.WriteBacksToL2 += st.WriteBacksToL2
		sum.WriteBacksOffChip += st.WriteBacksOffChip
	}
	// A table that never reaches a path proves nothing about it.
	if sum.L1IHits == 0 || sum.L1DHits == 0 || sum.L2Hits == 0 || sum.L2Misses == 0 ||
		sum.WriteBacksToL2 == 0 || sum.WriteBacksOffChip == 0 {
		t.Errorf("the table leaves a path unexercised: %+v", sum)
	}
	t.Logf("totals over %d cases: %+v", differentialCases, sum)
}

// FuzzL1PassReplay is the fuzzing form of TestL1PassReplayOracle. The
// geometry comes from the small integers and the trace from data, three
// bytes per reference: a kind byte whose high bits pick a high address
// region, and a 16-bit offset.
func FuzzL1PassReplay(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(6), uint8(2), uint8(0), []byte("\x00\x00\x10\x01\x00\x20\x02\x10\x00\x00\x00\x10"))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), []byte("\x02\x01\x00\x02\x02\x00\x02\x01\x00"))
	f.Add(uint8(7), uint8(5), uint8(3), uint8(3), uint8(2), []byte("\xfe\xff\xff\x02\x00\x00\xfe\xff\xff"))
	f.Fuzz(func(t *testing.T, l1Log, lineLog, l2Log, wayLog, policy uint8, data []byte) {
		line := 1 << (lineLog % 6)
		assoc := 1 << (wayLog % 4)
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
		}
		refs := make([]trace.Ref, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			refs = append(refs, trace.Ref{
				Kind: trace.Kind(data[0] % 3),
				Addr: uint64(data[0]>>2)<<40 | uint64(binary.LittleEndian.Uint16(data[1:])),
			})
		}
		if _, err := checkThreeWay(cfg, refs); err != nil {
			t.Fatalf("%s (L1 %s, L2 %s), %d refs: %v", cfg, cfg.L1I, cfg.L2, len(refs), err)
		}
	})
}

// TestL1PassReplayInstrument checks that Replay fills a registry as
// System.Instrument does: every counter equal, including the policy
// counters a conventional hierarchy leaves at zero.
func TestL1PassReplayInstrument(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200; i++ {
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
	}
}

// TestL1PassContext checks that both loops stop on a done context.
func TestL1PassContext(t *testing.T) {
	cfg, refs := randomCase(rand.New(rand.NewPCG(5, 6)))
	cfg.L2 = cache.Config{Size: 1 << 10, LineSize: cfg.L1I.LineSize, Assoc: 1}
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
	for _, c := range []Config{sa, other, excl, incl, wt} {
		if _, err := pass.Replay(context.Background(), c, nil); err == nil {
			t.Errorf("Replay accepted %s (L1D %s, policy %s, writes %s)", c, c.L1D, c.Policy, c.Writes)
		}
	}
	if !ReplayEligible(cfg) || ReplayEligible(excl) || ReplayEligible(incl) || ReplayEligible(wt) || ReplayEligible(sa) {
		t.Error("ReplayEligible disagrees with the eligibility rule")
	}
	// An exclusive or inclusive single-level hierarchy is just its L1s.
	single := excl
	single.L2 = cache.Config{}
	if !ReplayEligible(single) {
		t.Error("a single-level hierarchy is eligible whatever its policy field")
	}
}
