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

// naiveTracker is the O(n·footprint) move-to-front reference
// implementation distTracker must agree with exactly.
type naiveTracker struct {
	stack []cache.LineAddr // most recent first
}

func (n *naiveTracker) access(l cache.LineAddr) (dist uint64, cold bool) {
	for i, x := range n.stack {
		if x == l {
			copy(n.stack[1:], n.stack[:i])
			n.stack[0] = l
			return uint64(i) + 1, false
		}
	}
	n.stack = append([]cache.LineAddr{l}, n.stack...)
	return 0, true
}

func TestDistTrackerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := &distTracker{last: map[cache.LineAddr]int32{}}
	n := &naiveTracker{}
	for i := 0; i < 20000; i++ {
		// Skewed alphabet: hot lines get short distances, cold tail
		// exercises large distances and first touches.
		var l cache.LineAddr
		if rng.Intn(4) == 0 {
			l = cache.LineAddr(rng.Intn(2000))
		} else {
			l = cache.LineAddr(rng.Intn(64))
		}
		gd, _, gc := d.access(l)
		wd, wc := n.access(l)
		if gd != wd || gc != wc {
			t.Fatalf("ref %d line %d: distTracker = (%d, %v), naive = (%d, %v)", i, l, gd, gc, wd, wc)
		}
	}
}

func TestDistTrackerKnownSequence(t *testing.T) {
	d := &distTracker{last: map[cache.LineAddr]int32{}}
	steps := []struct {
		line cache.LineAddr
		dist uint64
		time uint64
		cold bool
	}{
		{10, 0, 0, true},  // A
		{10, 1, 1, false}, // A again: immediate reuse (collapsed)
		{20, 0, 0, true},  // B
		{30, 0, 0, true},  // C
		{10, 3, 3, false}, // A after B, C (run-collapsed: B, C, A itself)
		{20, 3, 3, false}, // B after C, A
	}
	for i, s := range steps {
		dist, tdist, cold := d.access(s.line)
		if dist != s.dist || cold != s.cold {
			t.Fatalf("step %d (line %d): got (%d, %v), want (%d, %v)", i, s.line, dist, cold, s.dist, s.cold)
		}
		if !cold && tdist != s.time {
			t.Fatalf("step %d (line %d): time distance %d, want %d", i, s.line, tdist, s.time)
		}
	}
}

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

// TestFenwickFixedMatchesGrowing drives the two Fenwick representations
// — the growing zero-value tree (bits = most-recent accesses) and the
// preallocated fixed tree (inverted "holes" form, used by the model
// package's profile pass) — through an identical Append/Clear stream
// and requires identical answers from every CountSince probe. Starting
// the fixed tree at a tiny capacity forces growFixed's rebuild path
// several times over.
func TestFenwickFixedMatchesGrowing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grow := &Fenwick{}
	fixed := NewFenwick(16) // ~10 doublings over the run
	last := map[cache.LineAddr]int32{}
	for i := 0; i < 30000; i++ {
		var l cache.LineAddr
		if rng.Intn(4) == 0 {
			l = cache.LineAddr(rng.Intn(4000))
		} else {
			l = cache.LineAddr(rng.Intn(128))
		}
		prev := last[l]
		grow.Append()
		fixed.Append()
		if grow.N() != fixed.N() {
			t.Fatalf("ref %d: N diverged: growing %d, fixed %d", i, grow.N(), fixed.N())
		}
		if prev != 0 {
			if g, f := grow.CountSince(prev), fixed.CountSince(prev); g != f {
				t.Fatalf("ref %d: CountSince(%d) diverged: growing %d, fixed %d", i, prev, g, f)
			}
			grow.Clear(prev)
			fixed.Clear(prev)
		}
		last[l] = grow.N()
		// Occasional probe at a random historical index, live or cleared.
		if i%17 == 0 && i > 0 {
			p := int32(rng.Intn(i) + 1)
			if g, f := grow.CountSince(p), fixed.CountSince(p); g != f {
				t.Fatalf("ref %d: probe CountSince(%d) diverged: growing %d, fixed %d", i, p, g, f)
			}
		}
	}
}
