package trace

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveLRU is the reference StackTracker must agree with: an explicit
// move-to-front list for stack distance and the whole run-collapsed
// history for reuse time, both scanned linearly.
type naiveLRU struct {
	stack   []uint64 // most recent first
	history []uint64 // the stream with immediate repeats collapsed
}

// access returns the line's 1-based stack distance and reuse time, or
// zeros for a first touch.
func (n *naiveLRU) access(l uint64) (dist, reuse uint64) {
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
	n.stack = append([]uint64{l}, n.stack...)
	return 0, 0
}

// TestStackTrackerMatchesNaive drives the tracker and the naive
// reference through one skewed random stream: hot lines give short
// distances and repeats, a cold tail gives long ones and first touches.
// The tracker starts with no room, so its tree doubles about fifteen
// times over the run.
func TestStackTrackerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := NewStackTracker(0)
	last := map[uint64]int32{}
	var ref naiveLRU
	for i := 0; i < 30000; i++ {
		var l uint64
		switch rng.Intn(8) {
		case 0:
			l = uint64(rng.Intn(4000))
		case 1:
			l = uint64(rng.Intn(64)) // often the previous line again
		default:
			l = uint64(rng.Intn(128))
		}
		d, reuse, idx := tr.Access(last[l])
		last[l] = idx
		wd, wr := ref.access(l)
		if d != wd || reuse != wr {
			t.Fatalf("ref %d line %d: tracker (dist %d, reuse %d), naive (%d, %d)", i, l, d, reuse, wd, wr)
		}
	}
	if got, want := tr.N(), int32(len(ref.history)); got != want {
		t.Fatalf("N = %d, want %d collapsed accesses", got, want)
	}
}

func TestStackTrackerKnownSequence(t *testing.T) {
	tr := NewStackTracker(2)
	last := map[uint64]int32{}
	steps := []struct {
		line        uint64
		dist, reuse uint64
	}{
		{10, 0, 0}, // A: first touch
		{10, 1, 1}, // A again: immediate repeat (collapsed)
		{20, 0, 0}, // B
		{30, 0, 0}, // C
		{10, 3, 3}, // A after B, C
		{20, 3, 3}, // B after C, A
		{20, 1, 1}, // B repeat
		{30, 3, 3}, // C after A, B
	}
	for i, s := range steps {
		d, reuse, idx := tr.Access(last[s.line])
		last[s.line] = idx
		if d != s.dist || reuse != s.reuse {
			t.Fatalf("step %d (line %d): got (dist %d, reuse %d), want (%d, %d)", i, s.line, d, reuse, s.dist, s.reuse)
		}
	}
}

// TestFenwickGrownMatchesRebuilt checks grown against a set built from
// scratch at the larger size with the same positions, word by word and
// node by node, for old and new lengths spread over 0..300: they cross
// word boundaries and several tree levels.
func TestFenwickGrownMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 300; n += 1 + n/40 {
		for m := n; m <= 300; m += 1 + rng.Intn(16) {
			small, big := newFenwick(n), newFenwick(m)
			for i := 1; i <= n; i++ {
				if rng.Intn(3) == 0 {
					small.set(i)
					big.set(i)
				}
			}
			g := small.grown(m)
			if len(g.words) != len(big.words) || len(g.tree) != len(big.tree) {
				t.Fatalf("grown(%d) of a %d-position set: %d words, %d nodes; want %d, %d",
					m, n, len(g.words), len(g.tree), len(big.words), len(big.tree))
			}
			for i := range big.words {
				if g.words[i] != big.words[i] {
					t.Fatalf("grown(%d) of a %d-position set: word %d = %#x, want %#x", m, n, i, g.words[i], big.words[i])
				}
			}
			for i := range big.tree {
				if g.tree[i] != big.tree[i] {
					t.Fatalf("grown(%d) of a %d-position set: node %d = %d, want %d", m, n, i, g.tree[i], big.tree[i])
				}
			}
		}
	}
}

// naiveSet is the reference the packed kernel must agree with: one bool
// per position, scanned linearly.
type naiveSet []bool

// check compares every prefix count, every rank and a gather of f with
// the naive set; positions the naive set does not cover must be absent
// from f.
func (ns naiveSet) check(t testing.TB, f fenwick, what string) {
	t.Helper()
	if f.size() < len(ns)-1 {
		t.Fatalf("%s: size %d below %d positions", what, f.size(), len(ns)-1)
	}
	var present []uint64
	for i := 0; i <= f.size(); i++ {
		if i < len(ns) && ns[i] {
			present = append(present, uint64(i))
			if got := f.rank(int32(len(present))); got != i {
				t.Fatalf("%s: rank(%d) = %d, want %d", what, len(present), got, i)
			}
		}
		if got := f.sum(i); got != int32(len(present)) {
			t.Fatalf("%s: sum(%d) = %d, want %d", what, i, got, len(present))
		}
	}
	identity := make([]uint64, f.size()+1)
	for i := range identity {
		identity[i] = uint64(i)
	}
	got := make([]uint64, len(present))
	f.gather(got, identity)
	for k := range present {
		if got[k] != present[k] {
			t.Fatalf("%s: gather put %d at %d, want %d", what, got[k], k, present[k])
		}
	}
}

// TestFenwickMatchesNaive drives set, unset, sum, rank, gather, grown
// and fill against a naive set for every length 0..300.
func TestFenwickMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 300; n++ {
		f, ns := newFenwick(n), make(naiveSet, n+1)
		for op := 0; op < 2*n; op++ {
			i := 1 + rng.Intn(n)
			if ns[i] {
				f.unset(i)
			} else {
				f.set(i)
			}
			ns[i] = !ns[i]
			// Spot checks between the full ones.
			var want int32
			j := rng.Intn(n + 1)
			for _, b := range ns[:j+1] {
				if b {
					want++
				}
			}
			if got := f.sum(j); got != want {
				t.Fatalf("n=%d op %d: sum(%d) = %d, want %d", n, op, j, got, want)
			}
		}
		ns.check(t, f, fmt.Sprintf("n=%d after updates", n))

		m := n + rng.Intn(200)
		f = f.grown(m)
		ns = append(ns, make(naiveSet, m-n)...)
		ns.check(t, f, fmt.Sprintf("n=%d grown to %d", n, m))
		if m > 0 {
			i := 1 + rng.Intn(m)
			if ns[i] {
				f.unset(i)
			} else {
				f.set(i)
			}
			ns[i] = !ns[i]
			ns.check(t, f, fmt.Sprintf("n=%d grown to %d, then updated", n, m))
		}

		lo, hi := 1+rng.Intn(m+1), rng.Intn(m+1)
		f.fill(lo, hi)
		for i := range ns {
			ns[i] = i >= lo && i <= hi
		}
		ns.check(t, f, fmt.Sprintf("n=%d grown to %d, fill(%d, %d)", n, m, lo, hi))
	}
}

// naiveMTF is the reference mtfStack must agree with: a slice, most
// recent first, moved by copying.
type naiveMTF []uint64

func (m *naiveMTF) refDepth(d int) uint64 {
	s := *m
	l := s[d-1]
	copy(s[1:d], s[:d-1])
	s[0] = l
	return l
}

func (m *naiveMTF) push(l uint64) { *m = append(naiveMTF{l}, *m...) }

// checkStack compares every depth of s with the naive list, and the
// front scan with the tree's rank at every depth. It returns how many
// depths the scan answered and how many it left to the tree.
func checkStack(t *testing.T, s *mtfStack, want naiveMTF, what string) (scanned, deeper int) {
	t.Helper()
	if s.depth() != len(want) {
		t.Fatalf("%s: depth %d, want %d", what, s.depth(), len(want))
	}
	if s.lines != nil {
		if got := s.occ.sum(s.occ.size()); got != int32(len(want)) {
			t.Fatalf("%s: %d slots occupied, want %d", what, got, len(want))
		}
	}
	for d, l := range want {
		slot := s.occ.rank(int32(d + 1))
		if got := s.lines[slot]; got != l {
			t.Fatalf("%s: depth %d holds %d, want %d", what, d+1, got, l)
		}
		if got, ok := s.scanRank(d + 1); !ok {
			deeper++
		} else if scanned++; got != slot {
			t.Fatalf("%s: the front scan puts depth %d at slot %d, rank at %d", what, d+1, got, slot)
		}
	}
	return scanned, deeper
}

// TestMTFStackMatchesNaive drives prewarm, push and refDepth (at depth
// 1, at the bottom and at random depths) against a slice move-to-front
// list. Each round forces a compaction every few thousand operations
// at first, then runs past its arena's headroom, so refDepth or push
// compacts on its own at least once. Rounds after the first build their stacks on
// arenas of other sizes that earlier rounds released to the pool.
// Round 1 skips prewarm, so its first push allocates the arena. Every
// check also compares refDepth's front scan with the tree's rank at
// every depth, on compacted stacks and, every 997 operations, on stacks
// with the holes moves leave; the scan must both answer and fall back.
func TestMTFStackMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var scanned, deeper int
	check := func(s *mtfStack, want naiveMTF, what string) {
		t.Helper()
		sc, de := checkStack(t, s, want, what)
		scanned, deeper = scanned+sc, deeper+de
	}
	for round, n := range []int{0, 0, 1, 63, 64, 65, 700, 3000, 130} {
		var s mtfStack
		want := naiveMTF{}
		if round != 1 {
			s.prewarm(n, func(i int) uint64 { return uint64(i)<<8 | uint64(round) })
			for i := 0; i < n; i++ {
				want = append(want, uint64(n-1-i)<<8|uint64(round))
			}
		}
		check(&s, want, fmt.Sprintf("round %d prewarm(%d)", round, n))
		next := uint64(n)
		compactions := 0
		for op := 0; op < 100_000; op++ {
			what := ""
			front := s.front
			switch r := rng.Intn(100); {
			case len(want) == 0 || r < 1:
				l := next<<8 | uint64(round)
				next++
				s.push(l)
				want.push(l)
				what = "push"
			default:
				d := 1
				switch {
				case r < 10:
				case r < 20:
					d = len(want)
				default:
					d = 1 + rng.Intn(len(want))
				}
				if got, w := s.refDepth(d), want.refDepth(d); got != w {
					t.Fatalf("round %d op %d: refDepth(%d) = %d, want %d", round, op, d, got, w)
				}
				what = fmt.Sprintf("refDepth(%d)", d)
			}
			if s.front > front {
				compactions++
				check(&s, want, fmt.Sprintf("round %d op %d %s (compacted)", round, op, what))
			}
			if op%997 == 996 {
				check(&s, want, fmt.Sprintf("round %d op %d", round, op))
			}
			if op < 20_000 && op%5_000 == 4_999 {
				s.compact()
				check(&s, want, fmt.Sprintf("round %d op %d forced compaction", round, op))
			}
		}
		if compactions == 0 {
			t.Fatalf("round %d: no compaction outside the forced ones", round)
		}
		check(&s, want, fmt.Sprintf("round %d end", round))
		s.release()
	}
	if scanned == 0 || deeper == 0 {
		t.Errorf("the front scan answered %d depths and left %d to the tree: a path is unexercised", scanned, deeper)
	}
}

// FuzzStackKernel drives the packed kernel and a naive set from an op
// string: the first byte sizes the set, then each byte pair is an op
// and its operand.
func FuzzStackKernel(f *testing.F) {
	// The naive checks are linear, so growth and op count are bounded to
	// keep each input fast: 2048 positions still span 32 words and six
	// tree levels.
	const maxFuzzSize, maxFuzzOps = 1 << 11, 1 << 10
	f.Add([]byte{0})
	f.Add([]byte{64, 0, 1, 0, 64, 1, 3, 2, 2, 3, 200, 4, 9})
	f.Add([]byte{255, 0, 255, 0, 128, 4, 7, 3, 0, 2, 1, 1, 77})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := int(ops[0])
		fw, ns := newFenwick(n), make(naiveSet, n+1)
		ops = ops[:min(len(ops), 1+2*maxFuzzOps)]
		count := func() (c int32) {
			for _, b := range ns {
				if b {
					c++
				}
			}
			return c
		}
		for i := 1; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0: // toggle
				if n == 0 {
					continue
				}
				p := 1 + arg%n
				if ns[p] {
					fw.unset(p)
				} else {
					fw.set(p)
				}
				ns[p] = !ns[p]
			case 1: // prefix count
				p := arg % (n + 1)
				var want int32
				for _, b := range ns[:p+1] {
					if b {
						want++
					}
				}
				if got := fw.sum(p); got != want {
					t.Fatalf("sum(%d) = %d, want %d", p, got, want)
				}
			case 2: // select
				c := count()
				if c == 0 {
					continue
				}
				k := 1 + int32(arg)%c
				want, seen := 0, int32(0)
				for want = range ns {
					if ns[want] {
						if seen++; seen == k {
							break
						}
					}
				}
				if got := fw.rank(k); got != want {
					t.Fatalf("rank(%d) = %d, want %d", k, got, want)
				}
			case 3: // grow, to at most maxFuzzSize positions
				m := n + arg
				if m > maxFuzzSize {
					continue
				}
				fw = fw.grown(m)
				ns = append(ns, make(naiveSet, m-n)...)
				n = m
			case 4: // bulk build of one range
				lo, hi := 1+arg%(n+1), arg*7%(n+1)
				fw.fill(lo, hi)
				for p := range ns {
					ns[p] = p >= lo && p <= hi
				}
			}
		}
		ns.check(t, fw, "after ops")
	})
}

var sinkDist uint64

// BenchmarkStackTrackerAccess times one Access on a tracker sized for
// 2M accesses, the size internal/model's profile pass gives each of its
// three trackers, over a stream that reuses a 64K-line footprint.
func BenchmarkStackTrackerAccess(b *testing.B) {
	const capacity, lines = 2_000_000, 1 << 16
	rng := rand.New(rand.NewSource(1))
	stream := make([]uint32, 1<<20)
	for i := range stream {
		stream[i] = uint32(rng.Intn(lines))
	}
	b.ResetTimer()
	var tr *StackTracker
	var last []int32
	for i := 0; i < b.N; i++ {
		if i%capacity == 0 {
			b.StopTimer()
			tr, last = NewStackTracker(capacity), make([]int32, lines)
			b.StartTimer()
		}
		l := stream[i%len(stream)]
		d, _, idx := tr.Access(last[l])
		last[l] = idx
		sinkDist += d
	}
}
