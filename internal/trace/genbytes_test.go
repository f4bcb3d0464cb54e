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

var sinkRef trace.Ref

// BenchmarkGenerate times one workload's generator per reference,
// set-up excluded: the stack-distance kernel's share of the exact
// stage.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"gcc1", "li"} {
		w, err := spec.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			g := trace.NewGenerator(w.Gen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRef, _ = g.Next()
			}
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
