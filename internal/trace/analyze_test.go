package trace

import (
	"strings"
	"testing"
)

func TestAnalyzeCountsAndFootprints(t *testing.T) {
	refs := []Ref{
		{Instr, 0x1000}, {Instr, 0x1004}, {Instr, 0x1008},
		{Data, 0x20000}, {Write, 0x20010}, {Data, 0x20000},
	}
	p := Analyze(NewSliceStream(refs))
	if p.Refs != 6 || p.Instr != 3 || p.Loads != 2 || p.Stores != 1 {
		t.Errorf("counts = %+v", p)
	}
	if p.UniqueInstrLines != 1 {
		t.Errorf("UniqueInstrLines = %d, want 1 (all in 0x1000 line)", p.UniqueInstrLines)
	}
	if p.UniqueDataLines != 2 {
		t.Errorf("UniqueDataLines = %d, want 2", p.UniqueDataLines)
	}
	// Both followers are sequential (+4).
	if p.SequentialInstrFrac != 1.0 {
		t.Errorf("SequentialInstrFrac = %v, want 1.0", p.SequentialInstrFrac)
	}
	if p.InstrFrac() != 0.5 {
		t.Errorf("InstrFrac() = %v", p.InstrFrac())
	}
	if got := p.StoreFrac(); got != 1.0/3 {
		t.Errorf("StoreFrac() = %v", got)
	}
}

func TestAnalyzeStackDistances(t *testing.T) {
	// Reference pattern: A B A -> A's reuse at distance 2 (bucket 1);
	// B never reused; 2 cold refs.
	refs := []Ref{
		{Data, 0x1000}, {Data, 0x2000}, {Data, 0x1000},
	}
	p := Analyze(NewSliceStream(refs))
	if p.ColdDataRefs != 2 {
		t.Errorf("ColdDataRefs = %d, want 2", p.ColdDataRefs)
	}
	if len(p.DataStackHistogram) < 2 || p.DataStackHistogram[1] != 1 {
		t.Errorf("histogram = %v, want one reuse in bucket 1 (distance 2)", p.DataStackHistogram)
	}
	// Immediate reuse: distance 1, bucket 0.
	p = Analyze(NewSliceStream([]Ref{{Data, 0x1000}, {Data, 0x1008}}))
	if len(p.DataStackHistogram) < 1 || p.DataStackHistogram[0] != 1 {
		t.Errorf("histogram = %v, want one reuse in bucket 0", p.DataStackHistogram)
	}
}

func TestMissRatioAtCapacity(t *testing.T) {
	// A cyclic walk over 8 lines, repeated: every reuse at distance 8.
	var refs []Ref
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 8; i++ {
			refs = append(refs, Ref{Data, uint64(i) * 16})
		}
	}
	p := Analyze(NewSliceStream(refs))
	// Capacity 8+ lines: only the 8 cold misses out of 32 refs.
	if got, want := p.MissRatioAtCapacity(8), 8.0/32; got != want {
		t.Errorf("MissRatioAtCapacity(8) = %v, want %v", got, want)
	}
	// Capacity 4: all reuses at distance 8 miss too.
	if got := p.MissRatioAtCapacity(4); got != 1.0 {
		t.Errorf("MissRatioAtCapacity(4) = %v, want 1.0", got)
	}
}

func TestAnalyzeMonotoneMissRatio(t *testing.T) {
	p := Analyze(Generate(testParams(), 30_000))
	prev := 1.1
	for _, c := range []int{16, 64, 256, 1024, 4096} {
		mr := p.MissRatioAtCapacity(c)
		if mr > prev {
			t.Errorf("miss ratio rose with capacity at %d lines: %v > %v", c, mr, prev)
		}
		prev = mr
	}
}

func TestAnalyzeGeneratorConsistency(t *testing.T) {
	// The analyzer should recover the generator's own parameters.
	p := testParams()
	p.WriteFrac = 0.3
	prof := Analyze(Generate(p, 100_000))
	if f := prof.InstrFrac(); f < 0.74 || f > 0.76 {
		t.Errorf("InstrFrac = %.3f, want ~0.75", f)
	}
	if f := prof.StoreFrac(); f < 0.27 || f > 0.33 {
		t.Errorf("StoreFrac = %.3f, want ~0.30", f)
	}
	maxCode := int(p.CodeBytes / 16)
	if prof.UniqueInstrLines > maxCode {
		t.Errorf("code footprint %d exceeds configured %d lines", prof.UniqueInstrLines, maxCode)
	}
	if prof.SequentialInstrFrac < 0.5 {
		t.Errorf("sequential instr frac %.3f implausibly low", prof.SequentialInstrFrac)
	}
}

func TestProfileRender(t *testing.T) {
	var sb strings.Builder
	p := Analyze(Generate(testParams(), 20_000))
	if err := p.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"references", "code footprint", "stack-distance", "miss ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmptyStream(t *testing.T) {
	p := Analyze(NewSliceStream(nil))
	if p.Refs != 0 || p.InstrFrac() != 0 || p.StoreFrac() != 0 {
		t.Errorf("empty profile = %+v", p)
	}
	if p.MissRatioAtCapacity(64) != 0 {
		t.Error("empty profile miss ratio non-zero")
	}
}

// TestAnalyzeFarBoundary pins the histogram's far edge: a cyclic walk
// over n data lines reuses every line at stack distance exactly n, so
// at n = 2^16 every reuse lands in the top bucket and at n = 2^16+1
// every reuse counts as far.
func TestAnalyzeFarBoundary(t *testing.T) {
	walk := func(n int) Profile {
		refs := make([]Ref, 0, 2*n)
		for rep := 0; rep < 2; rep++ {
			for i := 0; i < n; i++ {
				refs = append(refs, Ref{Data, uint64(i) << lineShiftDefault})
			}
		}
		return Analyze(NewSliceStream(refs))
	}
	p := walk(maxTrackedLines)
	if h := p.DataStackHistogram; len(h) != 17 || h[16] != maxTrackedLines || p.FarDataRefs != 0 {
		t.Errorf("walk over 2^16 lines: histogram %v, far %d; want all %d reuses in bucket 16", h, p.FarDataRefs, maxTrackedLines)
	}
	p = walk(maxTrackedLines + 1)
	if len(p.DataStackHistogram) != 0 || p.FarDataRefs != maxTrackedLines+1 || p.ColdDataRefs != maxTrackedLines+1 {
		t.Errorf("walk over 2^16+1 lines: histogram %v, far %d, cold %d; want every reuse far",
			p.DataStackHistogram, p.FarDataRefs, p.ColdDataRefs)
	}
}
