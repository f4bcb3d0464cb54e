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
func BenchmarkL1PassReplay(b *testing.B) {
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	const refs = 2_000_000
	trc := make([]trace.Ref, 0, refs)
	for s := w.Stream(refs); ; {
		r, ok := s.Next()
		if !ok {
			break
		}
		trc = append(trc, r)
	}
	var cfgs []Config
	for l1 := int64(1 << 10); l1 <= 256<<10; l1 *= 2 {
		cfgs = append(cfgs, Config{
			L1I: cache.Config{Size: l1, LineSize: 16, Assoc: 1},
			L1D: cache.Config{Size: l1, LineSize: 16, Assoc: 1},
		})
	}
	rec, err := NewL1Recorder(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.Record(context.Background(), trc); err != nil {
		b.Fatal(err)
	}
	passes := rec.Finish()
	for _, policy := range []Policy{Conventional, Exclusive} {
		for i, pass := range passes[:len(passes)-1] {
			cfg := cfgs[i]
			cfg.Policy = policy
			name := fmt.Sprintf("%s/L1=%s", policy, cache.FormatSize(cfg.L1I.Size))
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
