package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/spec"
)

// TestKeyComposition: Key pins only what determines a single point's
// result, unlike the full option Fingerprint — so overlapping sweeps
// share point keys for the configurations they have in common.
func TestKeyComposition(t *testing.T) {
	opt := Options{Refs: 1000}
	cfg := Configs(opt)[0]
	pk := Key("gcc1", cfg, opt)
	if !strings.HasPrefix(pk, "gcc1|") {
		t.Fatalf("point key %q does not name the workload", pk)
	}

	// Result-determining option changes change the key.
	opt2 := opt
	opt2.OffChipNS = 200
	if Key("gcc1", cfg, opt2) == pk {
		t.Fatal("option change did not change the point key")
	}

	// Enumeration-only option changes change the fingerprint but NOT
	// the point key for a shared configuration — this is what lets
	// overlapping jobs reuse cached points.
	opt3 := opt
	opt3.L2Sizes = []int64{0, 16 << 10}
	if opt3.Fingerprint() == opt.Fingerprint() {
		t.Fatal("enumeration change did not change the fingerprint")
	}
	if Key("gcc1", cfg, opt3) != pk {
		t.Fatalf("enumeration change altered the point key:\n%q\nvs\n%q",
			Key("gcc1", cfg, opt3), pk)
	}

	// Distinct geometries that share a display label still get distinct
	// point keys.
	cfg2 := cfg
	cfg2.L1I.Assoc = 2
	cfg2.L1D.Assoc = 2
	if Label(cfg2) != Label(cfg) {
		t.Fatalf("labels differ: %q vs %q", Label(cfg2), Label(cfg))
	}
	if Key("gcc1", cfg2, opt) == pk {
		t.Fatal("associativity change did not change the point key")
	}

	// Different workloads never collide.
	if Key("li", cfg, opt) == pk {
		t.Fatal("workload change did not change the point key")
	}
}

// TestEvaluatorMatchesEvaluate: a hardened Evaluator evaluation produces
// exactly the point the plain Evaluate path produces.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	w, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Refs: 20_000}
	cfg := core.Config{
		L1I: cache.Config{Size: 2 << 10, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Size: 2 << 10, LineSize: 16, Assoc: 1},
	}
	ev := NewEvaluator(w, opt, []core.Config{cfg})
	got, err := ev.Evaluate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Evaluate(w, cfg, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evaluator point = %v, want %v", got, want)
	}
	if ev.Workload().Name != "gcc1" {
		t.Fatalf("Workload() = %q", ev.Workload().Name)
	}
}

// TestEvaluatorConfigError: an invalid configuration degrades to a
// *ConfigError, never a panic — RunContext's contract.
func TestEvaluatorConfigError(t *testing.T) {
	w, err := spec.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	l1 := cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1}
	good := core.Config{L1I: l1, L1D: l1, L2: cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 4}}
	// L1s that are not a power of two, and one such L2 below
	// valid, eligible L1s, which must not take good's pass down with it.
	badL1 := core.Config{
		L1I: cache.Config{Size: 3000, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Size: 3000, LineSize: 16, Assoc: 1},
	}
	badL2 := good
	badL2.L2.Size = 3 << 10
	ev := NewEvaluator(w, Options{Refs: 1000}, []core.Config{badL1, good, badL2})
	for _, bad := range []core.Config{badL1, badL2} {
		_, err = ev.Evaluate(context.Background(), bad)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *ConfigError", Label(bad), err)
		}
		if ce.Workload != "li" {
			t.Fatalf("ConfigError workload = %q", ce.Workload)
		}
	}
	if _, err := ev.Evaluate(context.Background(), good); err != nil {
		t.Fatalf("%s beside invalid configurations: %v", Label(good), err)
	}
}

// TestEvaluatorCancellation: a cancelled context aborts the evaluation
// with the unwrapped context error.
func TestEvaluatorCancellation(t *testing.T) {
	w, err := spec.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0}})[0]
	ev := NewEvaluator(w, Options{Refs: 500_000}, []core.Config{cfg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.Evaluate(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSortByAreaFullTieBreak: equal (area, TPI) points order by label,
// independent of input order.
func TestSortByAreaFullTieBreak(t *testing.T) {
	a := Point{Label: "a", AreaRbe: 1, TPINS: 2}
	b := Point{Label: "b", AreaRbe: 1, TPINS: 2}
	got1 := []Point{b, a}
	SortByArea(got1)
	got2 := []Point{a, b}
	SortByArea(got2)
	if !reflect.DeepEqual(got1, got2) || got1[0].Label != "a" {
		t.Fatalf("tie-break unstable: %v vs %v", got1, got2)
	}
}
