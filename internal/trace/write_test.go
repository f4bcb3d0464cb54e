package trace

import (
	"bytes"
	"testing"
)

func TestWriteKindString(t *testing.T) {
	if Write.String() != "write" {
		t.Errorf("Write.String() = %q", Write)
	}
	if !Write.IsData() || !Data.IsData() || Instr.IsData() {
		t.Error("IsData() classification wrong")
	}
}

func TestWriteFracLabelsOnly(t *testing.T) {
	// Enabling WriteFrac must not change addresses or ordering — only
	// the Data/Write labels.
	p := testParams()
	base := Collect(Generate(p, 20_000), 0)
	p.WriteFrac = 0.4
	labeled := Collect(Generate(p, 20_000), 0)
	if len(base) != len(labeled) {
		t.Fatalf("lengths differ: %d vs %d", len(base), len(labeled))
	}
	for i := range base {
		if base[i].Addr != labeled[i].Addr {
			t.Fatalf("ref %d address changed: %#x vs %#x", i, base[i].Addr, labeled[i].Addr)
		}
		if base[i].Kind == Instr && labeled[i].Kind != Instr {
			t.Fatalf("ref %d instruction relabeled to %v", i, labeled[i].Kind)
		}
		if base[i].Kind == Data && !labeled[i].Kind.IsData() {
			t.Fatalf("ref %d data relabeled to %v", i, labeled[i].Kind)
		}
	}
}

func TestWriteFracProportion(t *testing.T) {
	p := testParams()
	p.WriteFrac = 0.3
	var loads, stores int
	for _, r := range Collect(Generate(p, 200_000), 0) {
		switch r.Kind {
		case Data:
			loads++
		case Write:
			stores++
		}
	}
	frac := float64(stores) / float64(loads+stores)
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("store fraction = %.3f, want ~0.30", frac)
	}
}

func TestWriteFracValidate(t *testing.T) {
	p := testParams()
	p.WriteFrac = 1.2
	if p.Validate() == nil {
		t.Error("WriteFrac > 1 accepted")
	}
	p.WriteFrac = -0.1
	if p.Validate() == nil {
		t.Error("negative WriteFrac accepted")
	}
}

func TestWriteRoundTripsBothFormats(t *testing.T) {
	refs := []Ref{{Write, 0x1234}, {Data, 0x5678}, {Instr, 0x9ABC}}
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	for _, r := range refs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got := Collect(NewBinaryReader(&bin), 0)
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("binary ref %d = %v, want %v", i, got[i], refs[i])
		}
	}

	var txt bytes.Buffer
	tw := NewTextWriter(&txt)
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	got = Collect(NewTextReader(&txt), 0)
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("text ref %d = %v, want %v", i, got[i], refs[i])
		}
	}
}
