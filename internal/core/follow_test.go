package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// setMaxChunk makes every pass of rec publish chunks of at most n miss
// events, so that a short trace publishes many.
func setMaxChunk(rec *L1Recorder, n int) {
	for _, f := range rec.fols {
		f.size, f.maxChunk = min(firstChunk, n), n
	}
}

// followGroup returns the configurations one follower replays over a
// pass of cfg's L1s: cfg's L2 (or, for a single-level cfg, a small
// 4-way one) and a 16-way L2 of as many lines or fewer, each under both
// policies, and the single-level hierarchy.
func followGroup(cfg Config) []Config {
	line := cfg.L1I.LineSize
	l2 := cfg.L2
	if !cfg.TwoLevel() {
		l2 = cache.Config{Size: int64(16 * line), LineSize: line, Assoc: 4, Policy: cache.LRU}
	}
	wide := cache.Config{Size: int64(max(l2.Sets()/4, 1) * 16 * line), LineSize: line, Assoc: 16, Policy: l2.Policy}
	var group []Config
	for _, c := range []cache.Config{l2, wide} {
		for _, pol := range []Policy{Conventional, Exclusive} {
			group = append(group, Config{L1I: cfg.L1I, L1D: cfg.L1D, L2: c, Policy: pol})
		}
	}
	return append(group, Config{L1I: cfg.L1I, L1D: cfg.L1D})
}

// sharedHalfway returns a copy of refs whose first half has its sides'
// lines apart (separateSides) and whose second half is refs' own, so
// that an exclusive replay starts on the loop without the victim probe
// and, once the sides' ranges overlap, switches to the probing one.
func sharedHalfway(refs []trace.Ref) []trace.Ref {
	h := len(refs) / 2
	return append(separateSides(refs[:h]), refs[h:]...)
}

// followGroups returns the followGroup of each configuration of cfgs.
func followGroups(cfgs []Config) [][]Config {
	groups := make([][]Config, len(cfgs))
	for i, cfg := range cfgs {
		groups[i] = followGroup(cfg)
	}
	return groups
}

// followPasses records every geometry of cfgs in one walk over refs,
// fed in pieces of random length, each pass publishing chunks of at
// most maxEvents events, while each pass's Follower replays its
// followGroup on a goroutine of its own. Both sides yield the processor
// at random, so chunks publish at random points of the followers' walk.
// It returns every follower's results, in the order of its group, after
// checking that the follower freed every chunk it walked.
func followPasses(rng *rand.Rand, cfgs []Config, refs []trace.Ref, maxEvents int) ([][]Replayed, error) {
	rec, err := NewL1Recorder(followGroups(cfgs))
	if err != nil {
		return nil, err
	}
	setMaxChunk(rec, maxEvents)
	fols := rec.Followers()
	results := make([][]Replayed, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, f := range fols {
		yield := rand.New(rand.NewPCG(rng.Uint64(), uint64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				more, err := f.Wait(context.Background())
				if err != nil {
					errs[i] = err
					return
				}
				if !more {
					break
				}
				if yield.IntN(4) == 0 {
					runtime.Gosched()
				}
				f.Step()
			}
			results[i] = f.Results()
		}()
	}
	for rest := refs; len(rest) > 0; {
		k := 1 + rng.IntN(len(rest))
		if err := rec.Record(context.Background(), rest[:k]); err != nil {
			return nil, err
		}
		rest = rest[k:]
		if rng.IntN(2) == 0 {
			runtime.Gosched()
		}
	}
	rec.Finish()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, f := range fols {
		for j, c := range f.chunks {
			if c.events != nil || c.instr != nil {
				return nil, fmt.Errorf("pass %d: the follower left chunk %d of %d allocated", i, j, len(f.chunks))
			}
		}
	}
	return results, nil
}

// checkFollow is the streaming oracle: every follower's result over a
// recording of cfgs (followPasses) must equal, field by field, the
// result of a follower that walks a pass recorded with the same chunks
// only once it is finished, and System.Run; and the counters the result
// adds to a registry must equal System.Instrument's. It reports how many
// exclusive replays into a narrow L2 switched from the loop without the
// victim probe to the probing one.
func checkFollow(rng *rand.Rand, cfgs []Config, refs []trace.Ref, maxEvents int) (switched int, err error) {
	results, err := followPasses(rng, cfgs, refs, maxEvents)
	if err != nil {
		return 0, err
	}
	fols, err := recordGroups(followGroups(cfgs), refs, 0, maxEvents)
	if err != nil {
		return 0, err
	}
	for i, f := range fols {
		switches := len(f.chunks) > 0 && f.chunks[0].disjoint && !f.chunks[len(f.chunks)-1].disjoint
		after := drain(f)
		for k, cfg := range followGroup(cfgs[i]) {
			got := results[i][k]
			want := NewSystem(cfg).Run(trace.NewSliceStream(refs))
			if got.Stats != want || after[k].Stats != want {
				return switched, fmt.Errorf("geometry %d, %s (L1I %s, L1D %s, L2 %s): follower %+v\n after Finish %+v\n System.Run %+v",
					i, cfg, cfg.L1I, cfg.L1D, cfg.L2, got.Stats, after[k].Stats, want)
			}
			wantReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
			sys := NewSystem(cfg)
			sys.Instrument(wantReg)
			sys.Run(trace.NewSliceStream(refs))
			got.Instrument(gotReg)
			w, g := wantReg.Snapshot().Counters, gotReg.Snapshot().Counters
			for name, v := range w {
				if g[name] != v || len(g) != len(w) {
					return switched, fmt.Errorf("geometry %d, %s: the follower's %s = %d, System.Instrument's %d (%d counters, want %d)", i, cfg, name, g[name], v, len(g), len(w))
				}
			}
			if switches && cfg.TwoLevel() && cfg.Policy == Exclusive && newL2Kernel(cfg.L2).narrow() {
				switched++
			}
		}
	}
	return switched, nil
}

// followCases is how many recordings TestL1PassFollowOracle checks.
const followCases = 300

// TestL1PassFollowOracle checks followers that replay passes while they
// record against followers that walk the finished passes, and against
// System.Run, over a
// seeded table of 1–9 geometries per walk (randomRecording), each
// replayed into narrow and wide L2s under both policies and at one
// level, with chunks of 1–64 events. The traces come in three forms: as
// drawn, with their sides apart, and with their sides apart for the
// first half only, so that exclusive replays switch loops mid-stream,
// which the table must reach.
func TestL1PassFollowOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1994))
	switched := 0
	for i := 0; i < followCases; i++ {
		cfgs, refs := randomRecording(rng)
		switch i % 3 {
		case 1:
			refs = separateSides(refs)
		case 2:
			refs = sharedHalfway(refs)
		}
		n, err := checkFollow(rng, cfgs, refs, 1+rng.IntN(64))
		if err != nil {
			t.Fatalf("case %d, %d refs: %v", i, len(refs), err)
		}
		switched += n
	}
	if switched == 0 {
		t.Error("no exclusive replay switched to the probing loop mid-stream")
	}
}

// TestL1PassFollowCancel checks a follower stopped mid-stream.
func TestL1PassFollowCancel(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	l1 := cache.Config{Size: 4 * 16, LineSize: 16, Assoc: 1}
	cfg := Config{L1I: l1, L1D: l1, L2: cache.Config{Size: 64 * 16, LineSize: 16, Assoc: 4}}
	var refs []trace.Ref
	for len(refs) < 1000 {
		refs = append(refs, randomTrace(rng, 16)...)
	}
	rec, err := NewL1Recorder([][]Config{followGroup(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	setMaxChunk(rec, 8)
	f := rec.Followers()[0]
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	walked := make(chan struct{})
	go func() {
		for first := true; ; first = false {
			more, err := f.Wait(ctx)
			if err != nil || !more {
				stopped <- err
				return
			}
			f.Step()
			if first {
				close(walked)
			}
		}
	}()
	if err := rec.Record(context.Background(), refs[:len(refs)/2]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-walked:
	case err := <-stopped:
		t.Fatalf("the follower stopped before it walked a chunk: %v", err)
	}
	cancel()
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("a follower stopped mid-stream returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled follower kept waiting for the recorder")
	}
	// The recorder runs on; a stopped follower holds it up nowhere.
	if err := rec.Record(context.Background(), refs[len(refs)/2:]); err != nil {
		t.Fatal(err)
	}
	rec.Finish()
}

// FuzzL1PassFollow is the fuzzing form of TestL1PassFollowOracle. geo
// draws up to 9 geometries as FuzzL1Record's does, five bytes each; the
// first byte of data sets the chunks' size (1–64 events) and seeds the
// pieces the walk is fed in and where each side yields, and the rest is
// the trace, three bytes per reference as in FuzzL1Record. A kind byte
// of 0xff turns the sides apart for the references before it, so a
// trace can turn shared at any point.
func FuzzL1PassFollow(f *testing.F) {
	f.Add([]byte("\x04\x00\x00\x02\x01"), append([]byte("\x03"), disjointSeed()...))
	f.Add([]byte("\x04\x02\x02\x04\x0e\x04\x02\x03\x05\x00"), append(append([]byte("\x05"), disjointSeed()...), append([]byte("\xff\x00\x00"), disjointSeed()...)...))
	f.Add([]byte("\x00\x00\x00\x01\x96\x00\x01\x01\x02\x8d\x00\x00\x01\x03\x00"), append([]byte("\x01"), wideSeed()...))
	f.Add([]byte("\x01\x03\x03\x05\x06\x02\x03\x03\x05\x06"), []byte("\x20\xfe\xff\xff\x02\x00\x00\xfe\xff\xff\x03\x10\x00\x02\x10\x00"))
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
		if len(cfgs) == 0 || len(data) == 0 {
			return
		}
		maxEvents := 1 + int(data[0])%64
		rng := rand.New(rand.NewPCG(uint64(data[0]), uint64(len(data))))
		refs := make([]trace.Ref, 0, len(data)/3)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			if data[0] == 0xff {
				refs = separateSides(refs)
				continue
			}
			refs = append(refs, trace.Ref{
				Kind: trace.Kind(data[0] % 3),
				Addr: uint64(data[0]>>2)<<58 | uint64(binary.LittleEndian.Uint16(data[1:])),
			})
		}
		if len(refs) == 0 {
			return
		}
		if _, err := checkFollow(rng, cfgs, refs, maxEvents); err != nil {
			t.Fatalf("%d refs, chunks of %d events: %v", len(refs), maxEvents, err)
		}
	})
}
