package model

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// testOpt keeps collection cheap; the profile math is refs-independent.
func testOpt(refs uint64) sweep.Options {
	return sweep.Options{Refs: refs}.Defaulted()
}

func collect(t testing.TB, workload string, refs uint64) *Profile {
	t.Helper()
	w, err := spec.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Collect(context.Background(), w, testOpt(refs))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProfileDeterministicAndValid pins the collection contract: two
// passes over the same workload produce identical documents, the
// document validates, and the totals reconcile.
func TestProfileDeterministicAndValid(t *testing.T) {
	p1 := collect(t, "gcc1", 30000)
	p2 := collect(t, "gcc1", 30000)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("two collection passes over the same stream differ")
	}
	if err := p1.Validate(); err != nil {
		t.Fatalf("fresh profile invalid: %v", err)
	}
	if p1.Refs != 30000 || p1.Unified.Refs != 30000 {
		t.Fatalf("profile refs = %d/%d, want 30000", p1.Refs, p1.Unified.Refs)
	}
	if p1.Fingerprint == "" || p1.Fingerprint != ProfileKey(mustWorkload(t, "gcc1"), testOpt(30000)) {
		t.Fatalf("fingerprint %q does not match ProfileKey", p1.Fingerprint)
	}
	if ProfileKey(mustWorkload(t, "gcc1"), testOpt(30001)) == p1.Fingerprint {
		t.Fatal("fingerprint insensitive to refs")
	}
}

func mustWorkload(t *testing.T, name string) spec.Workload {
	t.Helper()
	w, err := spec.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := collect(t, "espresso", 20000)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatal("profile JSON round trip not identical")
	}
}

// corruptProfiles returns documents LoadProfile must reject, each one
// corruption of p. The two wrap cases sum to the right totals modulo
// 2^64: a bucket holding 2^64-1 beside one holding an extra count, and
// split-stream refs whose sum wraps to the unified refs.
func corruptProfiles(tb testing.TB, p *Profile) map[string]string {
	mutate := func(f func(*Profile)) string {
		cp := *p
		for _, sp := range []*StreamProfile{&cp.Instr, &cp.Data, &cp.Unified} {
			sp.Counts = append([]uint64(nil), sp.Counts...)
			sp.TimeCounts = append([]uint64(nil), sp.TimeCounts...)
		}
		f(&cp)
		b, err := json.Marshal(&cp)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	return map[string]string{
		"bad format":      mutate(func(c *Profile) { c.Format = "bogus/9" }),
		"count mismatch":  mutate(func(c *Profile) { c.Instr.Counts[0] += 7 }),
		"bucket truncate": mutate(func(c *Profile) { c.Instr.Counts = c.Instr.Counts[:10] }),
		"refs mismatch":   mutate(func(c *Profile) { c.Refs += 5 }),
		"wrapped counts": mutate(func(c *Profile) {
			for _, sp := range []*StreamProfile{&c.Data, &c.Unified} {
				sp.Counts[NumBuckets-1] += math.MaxUint64 // the empty overflow bucket
				sp.Counts[0]++
			}
		}),
		"wrapped split refs": mutate(func(c *Profile) {
			x := c.Data.Refs + 1
			c.Instr.Refs += x
			c.Instr.Cold += x
			c.Data.Refs -= x
			c.Data.Cold -= x
		}),
		"not json": "{",
	}
}

// TestLoadProfileRejectsCorrupt exercises the validation surface a
// cached document must pass before predictions trust it.
func TestLoadProfileRejectsCorrupt(t *testing.T) {
	p := collect(t, "li", 20000)
	if p.Data.Counts[NumBuckets-1] != 0 || p.Unified.Counts[NumBuckets-1] != 0 {
		t.Fatal("a 20k-reference profile has reuse past the last octave")
	}
	for name, doc := range corruptProfiles(t, p) {
		if _, err := LoadProfile(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: LoadProfile accepted a corrupt document", name)
		}
	}
}

// naiveStack is the reference the profile pass must agree with: an
// explicit move-to-front list for stack distance and the whole
// run-collapsed history for reuse time, both scanned linearly.
type naiveStack struct {
	stack   []cache.LineAddr // most recent first
	history []cache.LineAddr // the stream with immediate repeats collapsed
}

// access returns the line's 1-based stack distance and reuse time, or
// zeros for a first touch.
func (n *naiveStack) access(l cache.LineAddr) (dist, reuse uint64) {
	if h := len(n.history); h > 0 && n.history[h-1] == l {
		return 1, 1
	}
	n.history = append(n.history, l)
	for i := len(n.history) - 2; i >= 0; i-- {
		if n.history[i] == l {
			reuse = uint64(len(n.history) - 1 - i)
			break
		}
	}
	for i, x := range n.stack {
		if x == l {
			copy(n.stack[1:], n.stack[:i])
			n.stack[0] = l
			return uint64(i) + 1, reuse
		}
	}
	n.stack = append([]cache.LineAddr{l}, n.stack...)
	return 0, 0
}

// TestStreamAccMatchesStackDist is the equivalence contract between the
// shared-index collection pass and the naive stack-distance reference:
// over a random three-stream reference sequence, streamAcc + triIndex
// must bucket exactly the stack distances and reuse times the reference
// reports.
func TestStreamAccMatchesStackDist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))

	type expAcc struct {
		ref            naiveStack
		refs, writes   uint64
		cold           uint64
		counts, tcount [NumBuckets]uint64
	}
	observeExp := func(e *expAcc, l cache.LineAddr, write bool) {
		e.refs++
		if write {
			e.writes++
		}
		d, td := e.ref.access(l)
		if d == 0 {
			e.cold++
			return
		}
		e.counts[bucketIndex(d)]++
		e.tcount[bucketIndex(td)]++
	}

	const n = 60000
	instr, data, uni := newStreamAcc(n), newStreamAcc(n), newStreamAcc(n)
	eInstr, eData, eUni := &expAcc{}, &expAcc{}, &expAcc{}
	idx := newTriIndex()
	for i := 0; i < n; i++ {
		// Skewed alphabet across two distant regions (exercising separate
		// triIndex pages), with occasional immediate repeats.
		var l cache.LineAddr
		switch rng.Intn(8) {
		case 0:
			l = cache.LineAddr(1<<22 + rng.Intn(5000))
		case 1, 2:
			l = cache.LineAddr(rng.Intn(3000))
		default:
			l = cache.LineAddr(rng.Intn(96))
		}
		isData := rng.Intn(3) != 0
		write := isData && rng.Intn(4) == 0
		s := idx.slot(l)
		if isData {
			data.observe(write, &s.data)
			observeExp(eData, l, write)
		} else {
			instr.observe(false, &s.instr)
			observeExp(eInstr, l, false)
		}
		uni.observe(write, &s.uni)
		observeExp(eUni, l, write)
	}

	check := func(name string, got *streamAcc, want *expAcc) {
		t.Helper()
		p := got.profile()
		active := uint64(len(want.ref.history))
		if p.Refs != want.refs || p.Writes != want.writes || p.Cold != want.cold || p.Active != active {
			t.Fatalf("%s: totals refs/writes/cold/active = %d/%d/%d/%d, want %d/%d/%d/%d",
				name, p.Refs, p.Writes, p.Cold, p.Active, want.refs, want.writes, want.cold, active)
		}
		for i := range want.counts {
			if p.Counts[i] != want.counts[i] {
				t.Fatalf("%s: stack bucket %d = %d, want %d", name, i, p.Counts[i], want.counts[i])
			}
			if p.TimeCounts[i] != want.tcount[i] {
				t.Fatalf("%s: time bucket %d = %d, want %d", name, i, p.TimeCounts[i], want.tcount[i])
			}
		}
	}
	check("instr", instr, eInstr)
	check("data", data, eData)
	check("unified", uni, eUni)
}

// TestCollectHonorsCancellation: a cancelled context aborts the pass.
func TestCollectHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, mustWorkload(t, "gcc1"), testOpt(1_000_000)); err == nil {
		t.Fatal("Collect ignored a cancelled context")
	}
}

// TestPredictMonotoneInCapacity: predicted miss counts must not grow
// with cache size within one organization — the basic sanity any miss
// model owes the envelope search.
func TestPredictMonotoneInCapacity(t *testing.T) {
	prof := collect(t, "gcc1", 50000)
	for _, pol := range []cache.ReplacementPolicy{cache.Random, cache.LRU} {
		prev := uint64(1) << 62
		for _, kb := range []int64{1, 2, 4, 8, 16, 32, 64} {
			cfg := core.Config{
				L1I: cache.Config{Size: kb << 10, LineSize: 16, Assoc: 1, Policy: pol},
				L1D: cache.Config{Size: kb << 10, LineSize: 16, Assoc: 1, Policy: pol},
			}
			st := PredictStats(prof, cfg)
			m := st.L1Misses()
			if m > prev {
				t.Errorf("policy %v: misses rose from %d to %d at %dKB", pol, prev, m, kb)
			}
			prev = m
		}
	}
}

// TestPredictFullyAssociativeLRUExact pins the one regime where the
// model is exact by construction: a fully-associative LRU cache of C
// lines misses exactly cold + re-references with stack distance > C.
func TestPredictFullyAssociativeLRUExact(t *testing.T) {
	prof := collect(t, "eqntott", 30000)
	lines := 256 // within the exact-bucket head: no bucketing error
	cfg := cache.Config{Size: int64(lines * 16), LineSize: 16, Assoc: lines, Policy: cache.LRU}
	got := streamMisses(cacheGeom(cfg), &prof.Data)
	want := float64(prof.Data.Cold)
	for i, rep := range bucketReps {
		if rep > float64(lines) {
			want += float64(prof.Data.Counts[i])
		}
	}
	if got != want {
		t.Fatalf("FA-LRU misses = %v, want exact %v", got, want)
	}
}

// TestEvaluatorSharedCache: evaluators sharing a Cache profile each
// workload once, and every produced point is flagged fast.
func TestEvaluatorSharedCache(t *testing.T) {
	c := NewCache()
	w := mustWorkload(t, "li")
	opt := testOpt(20000)
	e1 := NewEvaluatorWith(c, w, opt)
	e2 := NewEvaluatorWith(c, w, opt)
	cfg := sweep.Configs(opt)[0]
	p1, err := e1.Evaluate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e2.Evaluate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("shared cache holds %d profiles, want 1", c.Len())
	}
	if !p1.Approx() || p1.Evaluator != sweep.EvaluatorFast {
		t.Fatalf("fast point not flagged: evaluator %q", p1.Evaluator)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("two evaluators over one cache disagree")
	}
}

// TestRunContextAccuracySanity is a loose accuracy gate at small refs
// (the tight gates run on full-length streams in make fast-smoke): the
// fast tier must track exact simulation within 10% mean TPI error and
// produce the same point count, sorted the same way.
func TestRunContextAccuracySanity(t *testing.T) {
	if testing.Short() {
		t.Skip("full design-space simulation")
	}
	w := mustWorkload(t, "gcc1")
	opt := testOpt(100000)
	exact, err := sweep.RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(exact) {
		t.Fatalf("fast tier produced %d points, exact %d", len(fast), len(exact))
	}
	for i := 1; i < len(fast); i++ {
		if fast[i].AreaRbe < fast[i-1].AreaRbe {
			t.Fatal("fast points not sorted by area")
		}
	}
	wa, err := Compare("gcc1", exact, fast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wa.MeanAbsTPIErr > 0.10 {
		t.Errorf("mean TPI error %.1f%% exceeds the 10%% sanity bound", 100*wa.MeanAbsTPIErr)
	}
	if wa.WinnerAgreement < 0.5 {
		t.Errorf("winner agreement %.0f%% implausibly low", 100*wa.WinnerAgreement)
	}
}
