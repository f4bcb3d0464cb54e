package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// genDigests pins the SHA-256 of the first spec.DefaultRefs references
// of every workload, each hashed as a kind byte followed by the address
// as 8 little-endian bytes. Any change to the generator or to the
// stack-distance kernel under it that moves a single reference moves
// these digests; the sweep goldens only see the references through a
// cache simulation.
var genDigests = map[string]string{
	"gcc1":     "5cce1629dc926ab9707d164c979772f79c9c97e39b36251caae1d93316531a3e",
	"espresso": "8ed289df0d0b9b637ee8ff23cf9f1f4e090d0da5103f883879ee30742085158e",
	"fpppp":    "bd3a0a9e3e0ee48a964659de1ca5bd72fa853ffda0e41f9feac199985feb4125",
	"doduc":    "c81ca7f612f2e5339e2e6ed8a42339baab0e856bd3a0af7f5a8505a6c755cb96",
	"li":       "bfb0ff4ee91519c364cea6044b95ea3124002a828871f61862d972f7676bb9f2",
	"eqntott":  "079f384f43a0967942687e4909289fe8211adfba567724137d6a248ea214c76c",
	"tomcatv":  "999a2610fad1551a67173f2f65fcaf5cfbbd9337c9b47ff0999740950c4e840a",
}

// refDigest hashes the first n references of w's stream.
func refDigest(w spec.Workload, n uint64) string {
	h := sha256.New()
	var buf [9]byte
	s := w.Stream(n)
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		buf[0] = byte(r.Kind)
		binary.LittleEndian.PutUint64(buf[1:], r.Addr)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fillDigest is refDigest with the stream drained through trace.Fill
// in buffers of 64Ki references, as the sweep's trace stage drains it.
func fillDigest(w spec.Workload, n uint64) string {
	h := sha256.New()
	var b [9]byte
	s := w.Stream(n)
	buf := make([]trace.Ref, 1<<16)
	for k := trace.Fill(s, buf); k > 0; k = trace.Fill(s, buf) {
		for _, r := range buf[:k] {
			b[0] = byte(r.Kind)
			binary.LittleEndian.PutUint64(b[1:], r.Addr)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("7 x 2M generated references in -short mode")
	}
	for _, w := range spec.All() {
		if got, want := refDigest(w, spec.DefaultRefs), genDigests[w.Name]; got != want {
			t.Errorf("%s: first %d refs hash to %s, want %s", w.Name, spec.DefaultRefs, got, want)
		}
	}
}

// TestGeneratorBytesPinnedFill is TestGeneratorBytesPinned with every
// stream drained through Fill.
func TestGeneratorBytesPinnedFill(t *testing.T) {
	if testing.Short() {
		t.Skip("7 x 2M generated references in -short mode")
	}
	for _, w := range spec.All() {
		if got, want := fillDigest(w, spec.DefaultRefs), genDigests[w.Name]; got != want {
			t.Errorf("%s: first %d refs through Fill hash to %s, want %s", w.Name, spec.DefaultRefs, got, want)
		}
	}
}

// TestGeneratorFillMatchesNext drains every workload's stream through
// Fill in buffers of several sizes and requires the references Next
// gives, one for one, and the stream's end at its length. Odd small
// buffers end on an instruction fetch whose data reference is held for
// the next call, which must then start with it.
func TestGeneratorFillMatchesNext(t *testing.T) {
	const n = 150_000
	for _, w := range spec.All() {
		want := make([]trace.Ref, 0, n)
		s := w.Stream(n)
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			want = append(want, r)
		}
		if len(want) != n {
			t.Fatalf("%s: Next gave %d references, want %d", w.Name, len(want), n)
		}
		for _, size := range []int{1, 2, 3, 777, 1 << 16} {
			s := w.Stream(n)
			buf := make([]trace.Ref, size)
			var got []trace.Ref
			held := 0 // buffers that start with a held data reference
			for {
				k := trace.Fill(s, buf)
				if k > 0 && len(got) > 0 && buf[0].Kind != trace.Instr {
					held++
				}
				got = append(got, buf[:k]...)
				if k < size {
					break
				}
			}
			if len(got) != n {
				t.Fatalf("%s, buffers of %d: Fill gave %d references, want %d", w.Name, size, len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, buffers of %d: ref %d = %v, Next gave %v", w.Name, size, i, got[i], want[i])
				}
			}
			if size < 1<<16 && held == 0 {
				t.Errorf("%s, buffers of %d: no buffer started with a held data reference", w.Name, size)
			}
		}
	}
}

var sinkRef trace.Ref

// BenchmarkGenerate times one workload's generator per reference,
// set-up excluded: the stack-distance kernel's share of the exact
// stage. Each workload runs through Next, one reference per call, and
// through Fill into a 64Ki-reference buffer, as the sweep's trace stage
// drains it.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"gcc1", "li"} {
		w, err := spec.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/next", func(b *testing.B) {
			g := trace.NewGenerator(w.Gen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRef, _ = g.Next()
			}
		})
		b.Run(name+"/fill", func(b *testing.B) {
			g := trace.NewGenerator(w.Gen)
			buf := make([]trace.Ref, 1<<16)
			b.ResetTimer()
			for left := b.N; left > 0; left -= len(buf) {
				g.Fill(buf[:min(left, len(buf))])
			}
			sinkRef = buf[0]
		})
	}
}

// BenchmarkNewGenerator builds all seven workloads' generators per
// operation, prewarming both stacks of each. Each is drawn through a
// one-reference Generate, which hands its arenas back to the pool as a
// finished sweep or service job does, so the next build reuses them.
func BenchmarkNewGenerator(b *testing.B) {
	all := spec.All()
	for i := 0; i < b.N; i++ {
		for _, w := range all {
			sinkRef, _ = trace.Generate(w.Gen, 1).Next()
		}
	}
}
