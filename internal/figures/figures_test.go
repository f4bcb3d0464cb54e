package figures

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// fastHarness keeps figure tests quick: 60K refs still resolves the
// qualitative shapes.
func fastHarness() *Harness {
	return NewHarness(Config{Refs: 60_000})
}

func TestIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 39 { // table1 + fig1..fig26 + 12 extensions
		t.Fatalf("IDs() = %d entries, want 39", len(ids))
	}
	if ids[0] != "table1" || ids[1] != "fig1" || ids[26] != "fig26" || ids[38] != "extstream" {
		t.Errorf("IDs() order wrong: %v", ids)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := fastHarness().ByID("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestByIDCoversAll(t *testing.T) {
	// Every declared ID must resolve. (Generation itself is exercised
	// for the cheap figures below; here only resolution is at stake, so
	// use the cheapest harness and only the model-only figures.)
	h := fastHarness()
	for _, id := range []string{"table1", "fig1", "fig2", "fig21"} {
		f, err := h.ByID(id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if f.ID != id {
			t.Errorf("figure %s reports ID %s", id, f.ID)
		}
	}
}

func TestTable1(t *testing.T) {
	f := fastHarness().Table1()
	if len(f.Rows) != 7 {
		t.Fatalf("Table1 rows = %d, want 7", len(f.Rows))
	}
	if f.Rows[0][0] != "gcc1" || f.Rows[6][0] != "tomcatv" {
		t.Errorf("Table1 workload order wrong")
	}
	// Paper values present verbatim.
	if f.Rows[0][1] != "22.7M" || f.Rows[6][3] != "2949.9M" {
		t.Errorf("Table1 paper counts wrong: %v", f.Rows)
	}
}

func TestFigure1(t *testing.T) {
	f := fastHarness().Figure1()
	if len(f.Series) != 2 {
		t.Fatalf("Figure1 series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != 9 {
			t.Errorf("series %q has %d points, want 9", s.Name, len(s.Points))
		}
	}
	// Notes must report the cycle spread near the paper's 1.8x.
	if len(f.Notes) == 0 || !strings.Contains(f.Notes[0], "1.8x") {
		t.Errorf("Figure1 notes = %v", f.Notes)
	}
}

func TestFigure2(t *testing.T) {
	f := fastHarness().Figure2()
	if len(f.Series) != 3 {
		t.Fatalf("Figure2 series = %d", len(f.Series))
	}
	// All L2 access-cycle counts must be small integers (1-3).
	for _, p := range f.Series[2].Points {
		if p.Y < 1 || p.Y > 3 {
			t.Errorf("L2 access = %v cycles at %s", p.Y, p.Label)
		}
	}
}

func TestFigure21(t *testing.T) {
	f := fastHarness().Figure21()
	if len(f.Rows) != 4 {
		t.Fatalf("Figure21 rows = %d, want 4", len(f.Rows))
	}
	byKey := map[string][]string{}
	for _, r := range f.Rows {
		byKey[r[0]+"/"+r[1]] = r
	}
	// Scenario a: conventional thrashes (0 hit rate), exclusive swaps
	// (hit rate 1, both lines on-chip, no duplication).
	if got := byKey["a: L2 conflict/conventional"][3]; got != "0.00" {
		t.Errorf("conventional scenario-a hit rate = %s, want 0.00", got)
	}
	row := byKey["a: L2 conflict/exclusive"]
	if row[3] != "1.00" || row[4] != "true" || row[5] != "0 lines" {
		t.Errorf("exclusive scenario-a = %v", row)
	}
	// Scenario b: both policies serve on-chip.
	if byKey["b: L1-only conflict/conventional"][3] != "1.00" ||
		byKey["b: L1-only conflict/exclusive"][3] != "1.00" {
		t.Error("scenario b should stay on-chip under both policies")
	}
}

func TestSingleLevelFigureShape(t *testing.T) {
	f := fastHarness().Figure4()
	if len(f.Series) != 3 { // li, eqntott, tomcatv
		t.Fatalf("Figure4 series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != 9 {
			t.Errorf("series %q has %d points", s.Name, len(s.Points))
		}
	}
	// Notes must state each workload's minimum position.
	if len(f.Notes) != 3 {
		t.Errorf("Figure4 notes = %v", f.Notes)
	}
}

func TestEnvelopeFigureShape(t *testing.T) {
	f := fastHarness().Figure5()
	var names []string
	for _, s := range f.Series {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"all configs", "1-level only", "best config"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Figure5 missing series %q (have %v)", want, names)
		}
	}
	// The all-configs series covers the full 45-point design space.
	if n := len(f.Series[0].Points); n != 45 {
		t.Errorf("all-configs series has %d points, want 45", n)
	}
}

func TestSweepMemoization(t *testing.T) {
	h := fastHarness()
	_ = h.Figure5() // populates the gcc1 conventional sweep
	before := len(h.sweeps)
	_ = h.Figure3() // shares that sweep (plus espresso/doduc/fpppp)
	if len(h.sweeps) != before+3 {
		t.Errorf("memoization failed: %d sweeps cached, want %d", len(h.sweeps), before+3)
	}
}

func TestRender(t *testing.T) {
	var sb strings.Builder
	f := fastHarness().Table1()
	if err := Render(&sb, f); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"table1", "gcc1", "tomcatv", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table1 missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := Render(&sb, fastHarness().Figure1()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "access time") || !strings.Contains(sb.String(), "256K") {
		t.Errorf("rendered fig1 incomplete:\n%s", sb.String())
	}
}

// TestEveryFigureGenerates smoke-tests every registered figure at a tiny
// trace length: no panics, correct IDs, and non-empty content.
func TestEveryFigureGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	h := NewHarness(Config{Refs: 10_000})
	for _, id := range IDs() {
		f, err := h.ByID(id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if f.ID != id {
			t.Errorf("%s: reports ID %q", id, f.ID)
		}
		if len(f.Series) == 0 && len(f.Rows) == 0 {
			t.Errorf("%s: empty figure", id)
		}
		var sb strings.Builder
		if err := Render(&sb, f); err != nil {
			t.Errorf("%s: render: %v", id, err)
		}
		if err := Plot(&sb, f, 40, 10); err != nil {
			t.Errorf("%s: plot: %v", id, err)
		}
	}
}

// TestByIDCancelled gives every figure a harness whose context is
// already done: each must return promptly, without a panic, reporting
// the cancellation, whether it sweeps the design space, runs the
// extension figures' simulations or only prices configurations.
func TestByIDCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range IDs() {
		h := NewHarness(Config{Refs: 100_000, Context: ctx})
		if _, err := h.ByID(id); !errors.Is(err, context.Canceled) {
			t.Errorf("ByID(%s) under a cancelled context: err = %v, want context.Canceled", id, err)
		}
	}
}
