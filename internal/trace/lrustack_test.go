package trace

import (
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

// TestFenwickGrownMatchesRebuilt checks grown against a tree built from
// scratch at the larger size with the same point updates, for every
// old and new length up to 40.
func TestFenwickGrownMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 40; n++ {
		for m := n; m < 40; m++ {
			small, big := newFenwick(n), newFenwick(m)
			for k := 0; k < n; k++ {
				i, v := 1+rng.Intn(n), int32(rng.Intn(5))
				small.add(i, v)
				big.add(i, v)
			}
			g := small.grown(m)
			for i := range big {
				if g[i] != big[i] {
					t.Fatalf("grown(%d) of a %d-position tree: node %d = %d, want %d", m, n, i, g[i], big[i])
				}
			}
		}
	}
}
