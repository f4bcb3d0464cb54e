package trace

import (
	"math"
	"sync"
	"testing"
)

// testParams is a small, fast generator configuration.
func testParams() GenParams {
	return GenParams{
		Name: "test", Seed: 1,
		InstrFrac: 0.75,
		CodeBytes: 16 << 10, MeanRun: 6, ITheta: 1.4,
		DataLines: 1024, DTheta: 1.4, DNewFrac: 0.01,
		StreamFrac: 0.1, Streams: 2, StreamLines: 256,
	}
}

func TestGenParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*GenParams)
	}{
		{"zero instr frac", func(p *GenParams) { p.InstrFrac = 0 }},
		{"instr frac below half", func(p *GenParams) { p.InstrFrac = 0.4 }},
		{"instr frac above 1", func(p *GenParams) { p.InstrFrac = 1.5 }},
		{"tiny code", func(p *GenParams) { p.CodeBytes = 8 }},
		{"mean run below 1", func(p *GenParams) { p.MeanRun = 0.5 }},
		{"no data lines", func(p *GenParams) { p.DataLines = 0 }},
		{"negative stream frac", func(p *GenParams) { p.StreamFrac = -0.1 }},
		{"stream frac above 1", func(p *GenParams) { p.StreamFrac = 1.1 }},
		{"streams missing", func(p *GenParams) { p.StreamFrac = 0.5; p.Streams = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testParams()
			tc.mut(&p)
			if p.Validate() == nil {
				t.Error("invalid params accepted")
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Collect(Generate(testParams(), 5000), 0)
	b := Collect(Generate(testParams(), 5000), 0)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestGenerateOnRecycledArenas checks that stacks built on pooled
// arenas, dirtied by a generator of another shape and by compactions,
// produce the same references as a generator that never touches the
// pool. At 600k references both stacks compact at least once.
func TestGenerateOnRecycledArenas(t *testing.T) {
	const n = 600_000
	want := Collect(NewLimit(NewGenerator(testParams()), n), 0)
	other := testParams()
	other.Seed, other.DataLines, other.CodeBytes = 7, 4096, 64<<10
	for i := 0; i < 2; i++ {
		Collect(Generate(other, n), 0)
		got := Collect(Generate(testParams(), n), 0)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d: ref %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p2 := testParams()
	p2.Seed = 2
	a := Collect(Generate(testParams(), 2000), 0)
	b := Collect(Generate(p2, 2000), 0)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorInstrFraction(t *testing.T) {
	instr, data := Count(Generate(testParams(), 200_000))
	got := float64(instr) / float64(instr+data)
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("instruction fraction = %.4f, want 0.75 +- 0.01", got)
	}
}

func TestGeneratorAddressRegions(t *testing.T) {
	p := testParams()
	s := Generate(p, 100_000)
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		switch r.Kind {
		case Instr:
			if r.Addr < codeBase || r.Addr >= codeBase+uint64(p.CodeBytes) {
				t.Fatalf("instruction address %#x outside code region", r.Addr)
			}
			if r.Addr%instrSize != 0 {
				t.Fatalf("instruction address %#x not %d-byte aligned", r.Addr, instrSize)
			}
		case Data:
			if r.Addr < heapBase {
				t.Fatalf("data address %#x below heap base", r.Addr)
			}
		}
	}
}

func TestGeneratorInstructionRuns(t *testing.T) {
	// Consecutive instruction fetches should usually advance by 4 bytes;
	// breaks happen only at taken branches (~1/MeanRun of fetches).
	p := testParams()
	s := Generate(p, 100_000)
	var prev uint64
	sequential, breaks := 0, 0
	first := true
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Kind != Instr {
			continue
		}
		if !first {
			if r.Addr == prev+instrSize {
				sequential++
			} else {
				breaks++
			}
		}
		prev, first = r.Addr, false
	}
	frac := float64(breaks) / float64(sequential+breaks)
	want := 1 / p.MeanRun
	if frac < want*0.5 || frac > want*1.8 {
		t.Errorf("branch fraction = %.4f, want near %.4f", frac, want)
	}
}

func TestGeneratorStreamsAreSequential(t *testing.T) {
	// With StreamFrac 1, every data ref walks an array: per stream,
	// addresses advance by 8 bytes.
	p := testParams()
	p.StreamFrac = 1
	p.Streams = 1
	g := NewGenerator(p)
	var prev uint64
	seen := 0
	for seen < 1000 {
		r, _ := g.Next()
		if r.Kind != Data {
			continue
		}
		if seen > 0 && r.Addr != prev+8 && r.Addr > prev {
			t.Fatalf("stream advanced %#x -> %#x, want +8", prev, r.Addr)
		}
		prev = r.Addr
		seen++
	}
}

func TestGeneratorPrewarmedFootprint(t *testing.T) {
	// The heap stack starts at full depth, so deep reuse is possible
	// from the first reference: distinct data lines seen early should
	// substantially exceed what cold-start growth would allow.
	p := testParams()
	p.StreamFrac = 0
	p.DTheta = 0.8 // flat: hits deep lines often
	s := Generate(p, 50_000)
	lines := map[uint64]bool{}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Kind == Data {
			lines[r.Addr>>4] = true
		}
	}
	if len(lines) < 300 {
		t.Errorf("distinct data lines = %d; prewarmed footprint should expose deep reuse", len(lines))
	}
}

func TestGeneratorEndless(t *testing.T) {
	g := NewGenerator(testParams())
	for i := 0; i < 1000; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatal("raw generator ended")
		}
	}
}

func TestNewGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid params")
		}
	}()
	p := testParams()
	p.DataLines = 0
	NewGenerator(p)
}

func TestGeneratorParamsAccessor(t *testing.T) {
	p := testParams()
	g := NewGenerator(p)
	if g.Params().Name != "test" {
		t.Errorf("Params().Name = %q", g.Params().Name)
	}
}

// resetZipfMemo empties the shared sampler memo for the rest of a test
// and afterwards.
func resetZipfMemo(t *testing.T) {
	reset := func() {
		zipfMemo.Lock()
		zipfMemo.m, zipfMemo.depths = nil, 0
		zipfMemo.Unlock()
	}
	reset()
	t.Cleanup(reset)
}

// TestGeneratorSharedZipfTables checks that generators of one shape
// share their samplers and that a shared sampler gives the stream a
// freshly built one gives.
func TestGeneratorSharedZipfTables(t *testing.T) {
	resetZipfMemo(t)
	p := testParams()
	shared := NewGenerator(p)
	if again := NewGenerator(p); again.iZipf != shared.iZipf || again.dZipf != shared.dZipf {
		t.Fatal("generators of one shape built separate samplers")
	}
	resetZipfMemo(t)
	fresh := NewGenerator(p)
	if fresh.dZipf == shared.dZipf {
		t.Fatal("the memo survived its reset")
	}
	const n = 100_000
	a, b := Collect(NewLimit(shared, n), 0), Collect(NewLimit(fresh, n), 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d: %v on a shared sampler, %v on a fresh one", i, a[i], b[i])
		}
	}
}

// TestZipfMemoBounded checks that the memo stops growing at its entry
// limit and still hands out working samplers beyond it.
func TestZipfMemoBounded(t *testing.T) {
	resetZipfMemo(t)
	for i := 0; i < 2*zipfMemoEntries; i++ {
		z := sharedZipfSampler(10+i, 1.2)
		if d := z.sample(0.999999); d < 1 || d > 10+i {
			t.Fatalf("sampler %d drew depth %d", i, d)
		}
	}
	zipfMemo.Lock()
	n := len(zipfMemo.m)
	zipfMemo.Unlock()
	if n != zipfMemoEntries {
		t.Errorf("memo holds %d samplers, want %d", n, zipfMemoEntries)
	}
}

// TestNewGeneratorConcurrent builds generators of overlapping shapes
// from several goroutines; run under -race it checks the memo's locking.
func TestNewGeneratorConcurrent(t *testing.T) {
	resetZipfMemo(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := testParams()
			p.DataLines = 512 << (i % 3)
			p.Seed = uint64(i)
			Collect(Generate(p, 1000), 0)
		}(i)
	}
	wg.Wait()
}
