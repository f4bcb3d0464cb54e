package core

import (
	"context"
	"fmt"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// BenchmarkL1PassReplay times L1Pass.Replay alone on the paper grid:
// a 2M-reference gcc1 trace recorded once for every paper L1 size (1K
// to 256K, direct-mapped, 16 B lines), each pass replayed into every
// paper L2 of at least twice its L1 (4-way random) under the
// conventional and the exclusive policy. It reports ns per replayed
// miss event; the recording is outside the timer. The 256K L1 has no
// L2 on the grid, so it has no case.
//
// gcc1's code and data lie apart, so its exclusive replays take the
// loop that skips the victim probe. The exclusive-shared cases replay
// the same trace with every 64th data reference turned into a load of
// the instruction just fetched (a constant read from the code), so that
// lines are shared between the L1s and the replays take the probing
// loop.
func BenchmarkL1PassReplay(b *testing.B) {
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	const refs = 2_000_000
	trc := trace.Collect(w.Stream(refs), refs)
	shared := make([]trace.Ref, len(trc))
	var pc uint64
	for i, r := range trc {
		switch {
		case r.Kind == trace.Instr:
			pc = r.Addr
		case i%64 == 0:
			r = trace.Ref{Kind: trace.Data, Addr: pc}
		}
		shared[i] = r
	}
	var cfgs []Config
	for l1 := int64(1 << 10); l1 <= 256<<10; l1 *= 2 {
		cfgs = append(cfgs, Config{
			L1I: cache.Config{Size: l1, LineSize: 16, Assoc: 1},
			L1D: cache.Config{Size: l1, LineSize: 16, Assoc: 1},
		})
	}
	record := func(refs []trace.Ref) []*L1Pass {
		rec, err := NewL1Recorder(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Record(context.Background(), refs); err != nil {
			b.Fatal(err)
		}
		return rec.Finish()
	}
	passes, sharedPasses := record(trc), record(shared)
	for _, c := range []struct {
		name   string
		policy Policy
		passes []*L1Pass
	}{
		{"conventional", Conventional, passes},
		{"exclusive", Exclusive, passes},
		{"exclusive-shared", Exclusive, sharedPasses},
	} {
		for i, pass := range c.passes[:len(c.passes)-1] {
			cfg := cfgs[i]
			cfg.Policy = c.policy
			name := fmt.Sprintf("%s/L1=%s", c.name, cache.FormatSize(cfg.L1I.Size))
			b.Run(name, func(b *testing.B) {
				var events uint64
				for n := 0; n < b.N; n++ {
					for l2 := 2 * cfg.L1I.Size; l2 <= 256<<10; l2 *= 2 {
						cfg.L2 = cache.Config{Size: l2, LineSize: 16, Assoc: 4, Policy: cache.Random}
						if _, err := pass.Replay(context.Background(), cfg, nil); err != nil {
							b.Fatal(err)
						}
						events += pass.st.L1Misses()
					}
				}
				if events > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				}
			})
		}
	}
}
