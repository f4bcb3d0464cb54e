package trace

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	if Instr.String() != "instr" || Data.String() != "data" {
		t.Errorf("kind names: %v %v", Instr, Data)
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestSliceStream(t *testing.T) {
	refs := []Ref{{Instr, 0x10}, {Data, 0x20}, {Instr, 0x30}}
	s := NewSliceStream(refs)
	for i, want := range refs {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("Next() #%d = %v,%v want %v", i, got, ok, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("Next() after exhaustion reported ok")
	}
	s.Reset()
	if got, ok := s.Next(); !ok || got != refs[0] {
		t.Errorf("after Reset Next() = %v,%v", got, ok)
	}
}

func TestLimit(t *testing.T) {
	refs := make([]Ref, 10)
	s := NewLimit(NewSliceStream(refs), 3)
	n := 0
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("Limit(3) yielded %d refs", n)
	}
	// Limit larger than the stream: stops at stream end.
	s = NewLimit(NewSliceStream(refs), 100)
	n = 0
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("Limit(100) over 10 refs yielded %d", n)
	}
	// Fill stops at the limit too, and at the stream's end before it.
	for _, c := range []struct {
		limit uint64
		want  int
	}{{3, 3}, {100, 10}} {
		s := NewLimit(NewSliceStream(refs), c.limit)
		buf := make([]Ref, 4)
		n := 0
		for k := Fill(s, buf); k > 0; k = Fill(s, buf) {
			n += k
		}
		if n != c.want {
			t.Errorf("Limit(%d) over 10 refs filled %d", c.limit, n)
		}
	}
}

func TestCollect(t *testing.T) {
	refs := []Ref{{Instr, 1}, {Data, 2}, {Instr, 3}}
	got := Collect(NewSliceStream(refs), 0)
	if len(got) != 3 {
		t.Errorf("Collect(0) = %d refs, want 3", len(got))
	}
	got = Collect(NewSliceStream(refs), 2)
	if len(got) != 2 || cap(got) != 2 {
		t.Errorf("Collect(2) = %d refs in capacity %d, want 2 in 2", len(got), cap(got))
	}
	// A bogus max allocates at most the clamp, not max references.
	got = Collect(NewSliceStream(refs), 1<<40)
	if len(got) != 3 || cap(got) > collectPrealloc {
		t.Errorf("Collect(1<<40) = %d refs in capacity %d, want 3 in at most %d", len(got), cap(got), collectPrealloc)
	}
}

func TestCount(t *testing.T) {
	refs := []Ref{{Instr, 1}, {Data, 2}, {Instr, 3}, {Instr, 4}}
	i, d := Count(NewSliceStream(refs))
	if i != 3 || d != 1 {
		t.Errorf("Count = %d,%d want 3,1", i, d)
	}
}

func TestZipfSamplerRange(t *testing.T) {
	z := newZipfSampler(100, 1.3)
	if z.n() != 100 {
		t.Fatalf("n() = %d", z.n())
	}
	for _, u := range []float64{0, 0.1, 0.5, 0.9, 0.999999} {
		d := z.sample(u)
		if d < 1 || d > 100 {
			t.Errorf("sample(%v) = %d out of [1,100]", u, d)
		}
	}
	if d := z.sample(0); d != 1 {
		t.Errorf("sample(0) = %d, want 1 (head of distribution)", d)
	}
}

func TestZipfSamplerMonotone(t *testing.T) {
	z := newZipfSampler(1000, 1.5)
	prev := 0
	for u := 0.0; u < 1.0; u += 0.001 {
		d := z.sample(u)
		if d < prev {
			t.Fatalf("sample not monotone in u: %d after %d", d, prev)
		}
		prev = d
	}
}

func TestZipfThetaControlsTail(t *testing.T) {
	// Smaller theta spreads mass deeper: the u=0.9 quantile should sit
	// deeper for theta=0.8 than for theta=1.6.
	flat := newZipfSampler(10000, 0.8)
	steep := newZipfSampler(10000, 1.6)
	if flat.sample(0.9) <= steep.sample(0.9) {
		t.Errorf("flat(0.9)=%d should exceed steep(0.9)=%d",
			flat.sample(0.9), steep.sample(0.9))
	}
}

func TestZipfSamplerDegenerate(t *testing.T) {
	z := newZipfSampler(0, 1.0) // clamped to n=1
	if d := z.sample(0.5); d != 1 {
		t.Errorf("degenerate sampler returned %d", d)
	}
}

func TestMTFStack(t *testing.T) {
	var s mtfStack
	s.push(10)
	s.push(20)
	s.push(30) // stack: 30 20 10
	if s.depth() != 3 {
		t.Fatalf("depth = %d", s.depth())
	}
	if got := s.refDepth(3); got != 10 {
		t.Errorf("refDepth(3) = %d, want 10", got)
	}
	// stack now: 10 30 20
	if got := s.refDepth(1); got != 10 {
		t.Errorf("refDepth(1) = %d, want 10", got)
	}
	if got := s.refDepth(2); got != 30 {
		t.Errorf("refDepth(2) = %d, want 30", got)
	}
	// stack now: 30 10 20
	if got := s.refDepth(3); got != 20 {
		t.Errorf("refDepth(3) = %d, want 20", got)
	}
}

func TestMTFPrewarm(t *testing.T) {
	var s mtfStack
	s.prewarm(5, func(i int) uint64 { return uint64(100 + i) })
	if s.depth() != 5 {
		t.Fatalf("depth = %d", s.depth())
	}
	// Most recent (depth 1) should be the highest index.
	if got := s.refDepth(1); got != 104 {
		t.Errorf("depth-1 line = %d, want 104", got)
	}
	// Deepest is index 0.
	if got := s.refDepth(5); got != 100 {
		t.Errorf("depth-5 line = %d, want 100", got)
	}
}

func TestXorshiftDeterminismAndRange(t *testing.T) {
	a, b := newXorshift(7), newXorshift(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c := newXorshift(0) // zero seed remapped
	if c.state == 0 {
		t.Error("zero seed left state zero")
	}
	for i := 0; i < 1000; i++ {
		f := a.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64() = %v out of [0,1)", f)
		}
		n := a.intn(17)
		if n < 0 || n >= 17 {
			t.Fatalf("intn(17) = %d", n)
		}
	}
}

// TestBelowMatchesFloat checks the integer probability draw against
// the float comparison it replaces, draw for draw, over 10^6 draws of
// one seed for each probability, and at the draws either side of each
// threshold, where rounding would show first.
func TestBelowMatchesFloat(t *testing.T) {
	ps := []float64{
		0, 0x1p-60, 0x1p-53, 0x1p-52, 3 * 0x1p-10, 0.3, 1.0 / 7, 0.5,
		1 - 0x1p-53, 1, 5, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, p := range ps {
		th := threshold(p)
		a, b := newXorshift(1994), newXorshift(1994)
		for i := 0; i < 1_000_000; i++ {
			if want, got := a.float64() < p, b.below(th); got != want {
				t.Fatalf("p=%v draw %d: below = %v, float64() < p = %v", p, i, got, want)
			}
		}
		for _, u := range []uint64{0, 1, th - 1, th, th + 1, 1<<53 - 1} {
			if u >= 1<<53 {
				continue
			}
			if want, got := float64(u)/(1<<53) < p, u < th; got != want {
				t.Errorf("p=%v u=%d: u < threshold = %v, u/2^53 < p = %v", p, u, got, want)
			}
		}
	}
}

func TestSkip(t *testing.T) {
	refs := []Ref{{Instr, 1}, {Instr, 2}, {Instr, 3}, {Instr, 4}}
	s := NewSkip(NewSliceStream(refs), 2)
	got := Collect(s, 0)
	if len(got) != 2 || got[0].Addr != 3 {
		t.Errorf("Skip(2) = %v", got)
	}
	// Skipping past the end yields an empty stream, not a panic.
	s = NewSkip(NewSliceStream(refs), 10)
	if got := Collect(s, 0); len(got) != 0 {
		t.Errorf("Skip(10) over 4 refs = %v", got)
	}
}

func TestTee(t *testing.T) {
	refs := []Ref{{Instr, 1}, {Data, 2}}
	var seen []Ref
	s := NewTee(NewSliceStream(refs), func(r Ref) { seen = append(seen, r) })
	got := Collect(s, 0)
	if len(got) != 2 || len(seen) != 2 {
		t.Fatalf("Tee forwarded %d, observed %d", len(got), len(seen))
	}
	for i := range refs {
		if got[i] != refs[i] || seen[i] != refs[i] {
			t.Errorf("ref %d mangled", i)
		}
	}
}
