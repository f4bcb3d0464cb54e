package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzTextReader feeds arbitrary text to the din parser: it must never
// panic, and anything it accepts must round-trip through the writer.
func FuzzTextReader(f *testing.F) {
	f.Add("2 401000\n0 1000\n1 2000\n")
	f.Add("# comment\n\n2 0\n")
	f.Add("garbage")
	f.Add("2")
	f.Add("9 10\n")
	f.Add("2 zz\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr := NewTextReader(strings.NewReader(input))
		var refs []Ref
		for {
			r, ok := tr.Next()
			if !ok {
				break
			}
			refs = append(refs, r)
			if len(refs) > 10000 {
				break
			}
		}
		// Whatever was accepted must round-trip.
		var buf bytes.Buffer
		tw := NewTextWriter(&buf)
		for _, r := range refs {
			if err := tw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		got := Collect(NewTextReader(&buf), 0)
		if len(got) != len(refs) {
			t.Fatalf("round trip lost refs: %d -> %d", len(refs), len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("round trip changed ref %d: %v -> %v", i, refs[i], got[i])
			}
		}
	})
}

// FuzzBinaryReader feeds arbitrary bytes to the binary decoder: it must
// never panic and must stop cleanly (error or EOF) on malformed input.
func FuzzBinaryReader(f *testing.F) {
	var good bytes.Buffer
	bw := NewBinaryWriter(&good)
	_ = bw.Write(Ref{Instr, 0x401000})
	_ = bw.Write(Ref{Write, 0xFFFFFFFFFFFF})
	_ = bw.Flush()
	f.Add(good.Bytes())
	f.Add([]byte("TLTRACE1"))
	f.Add([]byte("not a trace at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		br := NewBinaryReader(bytes.NewReader(input))
		n := 0
		for {
			_, ok := br.Next()
			if !ok {
				break
			}
			n++
			if n > 100000 {
				break
			}
		}
		// After the stream ends, Next must stay ended.
		if _, ok := br.Next(); ok {
			t.Fatal("reader resumed after reporting end")
		}
	})
}

// FuzzGeneratorParams drives the generator constructor with arbitrary
// parameters: Validate and NewGenerator must agree (no panic on
// validated params) and the stream must honor its invariants.
func FuzzGeneratorParams(f *testing.F) {
	f.Add(uint64(1), 0.7, int64(8192), 5.0, 1.3, 1024, 1.3, 0.01, 0.1, 2, 256, 0.3)
	// Non-finite values Validate must reject: before it did, each of
	// these passed, and an infinite MeanRun made the first run endless.
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint64(1), nan, int64(8192), 5.0, 1.3, 1024, 1.3, 0.01, 0.1, 2, 256, 0.3)
	f.Add(uint64(1), 0.7, int64(8192), inf, 1.3, 1024, 1.3, 0.01, 0.1, 2, 256, 0.3)
	f.Add(uint64(1), 0.7, int64(8192), nan, 1.3, 1024, 1.3, 0.01, 0.1, 2, 256, 0.3)
	f.Add(uint64(1), 0.7, int64(8192), 1e300, 1.3, 1024, 1.3, 0.01, 0.1, 2, 256, 0.3)
	f.Add(uint64(1), 0.7, int64(8192), 5.0, nan, 1024, -inf, nan, nan, 2, 256, nan)
	f.Add(uint64(1), 0.7, int64(8192), 5.0, inf, 1024, 1.3, 0.01, 0.1, 2, 256, 0.3)
	// Probabilities at the ends of their ranges: every reference after
	// an instruction is data, streaming and written, and every branch
	// is taken.
	f.Add(uint64(3), 0.5, int64(8192), 1.0, 1.3, 1024, 1.3, 1.0, 1.0, 2, 256, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, instrFrac float64, codeBytes int64,
		meanRun, iTheta float64, dataLines int, dTheta, dNewFrac, streamFrac float64,
		streams, streamLines int, writeFrac float64) {
		p := GenParams{
			Name: "fuzz", Seed: seed,
			InstrFrac: instrFrac,
			CodeBytes: codeBytes, MeanRun: meanRun, ITheta: iTheta,
			DataLines: dataLines, DTheta: dTheta, DNewFrac: dNewFrac,
			StreamFrac: streamFrac, Streams: streams, StreamLines: streamLines,
			WriteFrac: writeFrac,
		}
		if err := p.Validate(); err != nil {
			return // invalid params are rejected, nothing more to check
		}
		// Guard against pathological memory use from fuzzer-chosen sizes.
		if p.CodeBytes > 1<<22 || p.DataLines > 1<<18 || p.StreamLines > 1<<20 {
			return
		}
		s := Generate(p, 200)
		var want []Ref
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			if r.Kind != Instr && r.Kind != Data && r.Kind != Write {
				t.Fatalf("invalid kind %v", r.Kind)
			}
			want = append(want, r)
		}
		if len(want) != 200 {
			t.Fatalf("generated %d refs, want 200", len(want))
		}
		// Fill in buffers of 7 must give the references Next gives.
		g := NewGenerator(p)
		buf := make([]Ref, 7)
		for i := 0; i < len(want); i += len(buf) {
			g.Fill(buf)
			for j, r := range buf[:min(len(buf), len(want)-i)] {
				if r != want[i+j] {
					t.Fatalf("ref %d: Fill gave %v, Next %v", i+j, r, want[i+j])
				}
			}
		}
	})
}
