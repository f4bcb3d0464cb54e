package core

import (
	"fmt"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// BenchmarkL1PassReplay times the Follower's replay alone on the paper
// grid: a 2M-reference gcc1 trace recorded for every paper L1 size (1K
// to 128K, direct-mapped, 16 B lines), with one pass and follower per
// paper L2 of at least twice the L1 (4-way random) under the
// conventional or the exclusive policy, all in one walk. Once the
// recording is finished, the followers replay their passes one after
// the other, so each L2 runs over the whole stream alone. It reports ns
// per replayed miss event; each operation's recording is outside the
// timer. The 256K L1 has no L2 on the grid, so it has no case.
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
	for _, c := range []struct {
		name   string
		policy Policy
		refs   []trace.Ref
	}{
		{"conventional", Conventional, trc},
		{"exclusive", Exclusive, trc},
		{"exclusive-shared", Exclusive, shared},
	} {
		for l1 := int64(1 << 10); l1 < 256<<10; l1 *= 2 {
			l1c := cache.Config{Size: l1, LineSize: 16, Assoc: 1}
			var groups [][]Config
			for l2 := 2 * l1; l2 <= 256<<10; l2 *= 2 {
				groups = append(groups, []Config{{
					L1I: l1c, L1D: l1c, Policy: c.policy,
					L2: cache.Config{Size: l2, LineSize: 16, Assoc: 4, Policy: cache.Random},
				}})
			}
			b.Run(fmt.Sprintf("%s/L1=%s", c.name, cache.FormatSize(l1)), func(b *testing.B) {
				var events uint64
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					fols, err := recordGroups(groups, c.refs, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, f := range fols {
						drain(f)
						events += f.Events()
					}
				}
				if events > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				}
			})
		}
	}
}

// BenchmarkSystemRun times System.Run over a freshly generated stream,
// generator included, as the figures' extension studies and the sweep's
// direct path run it: 200k gcc1 and li references through an 8K:64K
// hierarchy (4-way random L2) per operation, reported in ns per
// reference.
func BenchmarkSystemRun(b *testing.B) {
	const refs = 200_000
	cfg := Config{
		L1I: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L2:  cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 4, Policy: cache.Random},
	}
	for _, name := range []string{"gcc1", "li"} {
		w, err := spec.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				NewSystem(cfg).Run(w.Stream(refs))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refs), "ns/ref")
		})
	}
}
