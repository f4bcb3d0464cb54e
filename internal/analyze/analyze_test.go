package analyze

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// testConfigs spans the hierarchy shapes whose demand streams differ:
// single level, conventional, exclusive (with its Lookup/Insert split
// and swaps), inclusive (back-invalidations), and write-through L1.
func testConfigs() map[string]core.Config {
	l1 := func(kb int64) cache.Config {
		return cache.Config{Size: l1size(kb), LineSize: 16, Assoc: 1}
	}
	l2 := func(kb int64, assoc int) cache.Config {
		return cache.Config{Size: kb << 10, LineSize: 16, Assoc: assoc, Policy: cache.Random}
	}
	return map[string]core.Config{
		"single":       {L1I: l1(4), L1D: l1(4)},
		"conventional": {L1I: l1(2), L1D: l1(2), L2: l2(32, 1), Policy: core.Conventional},
		"exclusive":    {L1I: l1(2), L1D: l1(2), L2: l2(32, 4), Policy: core.Exclusive},
		"inclusive":    {L1I: l1(2), L1D: l1(2), L2: l2(32, 4), Policy: core.Inclusive},
		"writethrough": {L1I: l1(2), L1D: l1(2), L2: l2(32, 2), Policy: core.Conventional, Writes: core.WriteThroughNoAllocate},
	}
}

func l1size(kb int64) int64 { return kb << 10 }

// TestReconciliation3C is the acceptance-criterion test: for every
// workload/config pair, each level's 3C classes sum exactly to the
// primary simulator's miss count, and the shadow's access/hit counts
// match the primary's too.
func TestReconciliation3C(t *testing.T) {
	for _, wname := range []string{"gcc1", "tomcatv"} {
		w, err := spec.ByName(wname)
		if err != nil {
			t.Fatalf("workload %s: %v", wname, err)
		}
		refs := trace.Collect(w.Stream(30000), 0)
		for cname, cfg := range testConfigs() {
			sys, err := core.TryNewSystem(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", wname, cname, err)
			}
			a := Attach(sys, nil)
			sys.Run(trace.NewSliceStream(refs))

			caches := map[string]*cache.Cache{"l1i": sys.L1I(), "l1d": sys.L1D(), "l2": sys.L2()}
			seen := 0
			for _, lv := range a.levels {
				c := caches[lv.name]
				if c == nil {
					t.Fatalf("%s/%s: analyzer has level %q the system lacks", wname, cname, lv.name)
				}
				seen++
				st := c.Stats()
				if lv.accesses != st.Accesses || lv.hits != st.Hits || lv.misses != st.Misses {
					t.Errorf("%s/%s %s: shadow saw %d/%d/%d acc/hit/miss, primary %d/%d/%d",
						wname, cname, lv.name, lv.accesses, lv.hits, lv.misses,
						st.Accesses, st.Hits, st.Misses)
				}
				if sum := lv.compulsory + lv.capacity + lv.conflict; sum != st.Misses {
					t.Errorf("%s/%s %s: 3C sum %d != primary misses %d (c=%d cap=%d conf=%d)",
						wname, cname, lv.name, sum, st.Misses, lv.compulsory, lv.capacity, lv.conflict)
				}
				if lv.hist.Count() != lv.accesses-lv.coldRefs {
					t.Errorf("%s/%s %s: histogram count %d != warm refs %d",
						wname, cname, lv.name, lv.hist.Count(), lv.accesses-lv.coldRefs)
				}
			}
			want := 2
			if cfg.TwoLevel() {
				want = 3
			}
			if seen != want {
				t.Errorf("%s/%s: analyzer tracks %d levels, want %d", wname, cname, seen, want)
			}
		}
	}
}

// TestConflictZeroOnFullyAssociativeLRU pins the 3C definition to its
// ground truth: when the primary cache IS the fully-associative LRU
// shadow, no miss can be a conflict miss.
func TestConflictZeroOnFullyAssociativeLRU(t *testing.T) {
	cfg := core.Config{
		L1I: cache.Config{Size: 512, LineSize: 16, Assoc: 32, Policy: cache.LRU},
		L1D: cache.Config{Size: 512, LineSize: 16, Assoc: 32, Policy: cache.LRU},
	}
	sys := core.NewSystem(cfg)
	a := Attach(sys, nil)
	rng := rand.New(rand.NewSource(7))
	var refs []trace.Ref
	for i := 0; i < 50000; i++ {
		kind := trace.Instr
		if rng.Intn(2) == 0 {
			kind = trace.Data
		}
		refs = append(refs, trace.Ref{Kind: kind, Addr: uint64(rng.Intn(4096)) * 16})
	}
	sys.Run(trace.NewSliceStream(refs))
	for _, lv := range a.levels {
		if lv.conflict != 0 {
			t.Errorf("%s: %d conflict misses on a fully-associative LRU cache", lv.name, lv.conflict)
		}
		if lv.misses == 0 {
			t.Errorf("%s: test exercised no misses", lv.name)
		}
	}
}

// TestShadowDoesNotPerturbPrimary runs the same workload through two
// identical systems, one shadowed, and demands bit-identical primary
// results — the contract that keeps stored and resumed output unchanged
// when -explain is on.
func TestShadowDoesNotPerturbPrimary(t *testing.T) {
	w, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	refs := trace.Collect(w.Stream(30000), 0)
	for cname, cfg := range testConfigs() {
		plain := core.NewSystem(cfg)
		shadowed := core.NewSystem(cfg)
		Attach(shadowed, nil)
		ps := plain.Run(trace.NewSliceStream(refs))
		ss := shadowed.Run(trace.NewSliceStream(refs))
		if !reflect.DeepEqual(ps, ss) {
			t.Errorf("%s: shadow perturbed stats:\nplain    %+v\nshadowed %+v", cname, ps, ss)
		}
	}
}

func TestReportDocument(t *testing.T) {
	w, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfigs()["exclusive"]
	sys := core.NewSystem(cfg)
	a := Attach(sys, nil)
	sys.Run(trace.NewSliceStream(trace.Collect(w.Stream(20000), 0)))

	r := a.Report("gcc1", 20000)
	if r.Format != ReportFormat {
		t.Errorf("Format = %q, want %q", r.Format, ReportFormat)
	}
	if r.Workload != "gcc1" || r.Policy != "exclusive" || r.Refs != 20000 {
		t.Errorf("provenance fields wrong: %+v", r)
	}
	if len(r.Levels) != 3 {
		t.Fatalf("report has %d levels, want 3", len(r.Levels))
	}
	for _, l := range r.Levels {
		if l.Compulsory+l.Capacity+l.Conflict != l.Misses {
			t.Errorf("%s: 3C sum != misses in report", l.Level)
		}
		if l.ConflictShare < 0 || l.ConflictShare > 1 {
			t.Errorf("%s: conflict share %v out of range", l.Level, l.ConflictShare)
		}
		if got := l.ReuseDistance.Count; got != l.Accesses-l.ColdRefs {
			t.Errorf("%s: reuse histogram count %d != warm refs %d", l.Level, got, l.Accesses-l.ColdRefs)
		}
		// The explicit-bound bucket form must be present for plotting.
		if len(l.ReuseDistance.Buckets) != len(l.ReuseDistance.Counts) {
			t.Errorf("%s: snapshot Buckets len %d != Counts len %d",
				l.Level, len(l.ReuseDistance.Buckets), len(l.ReuseDistance.Counts))
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON round-trip: %v", err)
	}
	if back.Format != ReportFormat || len(back.Levels) != 3 {
		t.Errorf("round-tripped report mangled: %+v", back)
	}
	var text bytes.Buffer
	if err := r.Write(&text); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Contains(text.Bytes(), []byte("conflict")) {
		t.Errorf("text report lacks header: %q", text.String())
	}
}
