package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/spec"
)

// smallOpt keeps the RunContext tests fast: 4 configurations (1:0, 1:8,
// 4:0, 4:8), short traces, one worker so hook-driven scenarios are
// deterministic.
func smallOpt() Options {
	return Options{
		Refs:    20_000,
		L1Sizes: []int64{1 << 10, 4 << 10},
		L2Sizes: []int64{0, 8 << 10},
		Workers: 1,
	}
}

// withEvalHook installs an evaluation hook for the duration of a test.
func withEvalHook(t *testing.T, hook func(core.Config)) {
	t.Helper()
	evalTestHook = hook
	t.Cleanup(func() { evalTestHook = nil })
}

// mapStore is a map-backed PointStore. RunContext calls Get before its
// workers start and Put under its own lock, so it needs no lock itself.
type mapStore map[string]Point

func (s mapStore) Get(key string) (Point, bool) { p, ok := s[key]; return p, ok }
func (s mapStore) Put(key string, p Point)      { s[key] = p }

func testWorkload(t *testing.T) spec.Workload {
	t.Helper()
	w, err := spec.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunContextMatchesRun(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.Workers = 0 // default parallelism, as Run users get
	want := Run(w, opt)
	got, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunContext returned %d points, Run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("point %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	for _, p := range got {
		if p.Workload != w.Name {
			t.Errorf("point %s carries workload %q, want %q", p.Label, p.Workload, w.Name)
		}
	}
}

func TestRunContextNilContext(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.L1Sizes = opt.L1Sizes[:1]
	if _, err := RunContext(nil, w, opt); err != nil { //nolint:staticcheck // nil ctx tolerance is the point
		t.Fatalf("nil context: %v", err)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	w := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	points, err := RunContext(ctx, w, smallOpt())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled RunContext took %v", elapsed)
	}
	if len(points) != 0 {
		t.Errorf("pre-cancelled RunContext returned %d points", len(points))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "interrupted after 0/") {
		t.Errorf("err = %q lacks progress context", err)
	}
}

func TestRunContextCancelMidSweep(t *testing.T) {
	w := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	calls := 0
	withEvalHook(t, func(core.Config) {
		mu.Lock()
		defer mu.Unlock()
		if calls++; calls == 3 {
			cancel()
		}
	})
	opt := smallOpt()
	points, err := RunContext(ctx, w, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := len(Configs(opt))
	if len(points) >= total {
		t.Errorf("cancelled sweep returned all %d points", len(points))
	}
	// The two evaluations that finished before the cancelling one must
	// survive, sorted by area like any other result.
	if len(points) < 2 {
		t.Errorf("cancelled sweep kept only %d completed points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].AreaRbe < points[i-1].AreaRbe {
			t.Error("partial result not sorted by area")
		}
	}
}

func TestRunContextPanicIsolation(t *testing.T) {
	w := testWorkload(t)
	const victim = "4:8"
	withEvalHook(t, func(cfg core.Config) {
		if Label(cfg) == victim {
			panic("injected failure")
		}
	})
	opt := smallOpt()
	points, err := RunContext(context.Background(), w, opt)
	if err == nil {
		t.Fatal("panicking configuration produced no error")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *ConfigError", err)
	}
	if ce.Label != victim || ce.Workload != w.Name {
		t.Errorf("ConfigError = {%q, %q}, want {%q, %q}", ce.Label, ce.Workload, victim, w.Name)
	}
	if !strings.Contains(ce.Error(), "injected failure") {
		t.Errorf("ConfigError %q hides the panic value", ce)
	}
	total := len(Configs(opt))
	if len(points) != total-1 {
		t.Errorf("sweep completed %d points, want %d (all but the panicking one)", len(points), total-1)
	}
	for _, p := range points {
		if p.Label == victim {
			t.Errorf("failed configuration %s appears in the results", victim)
		}
	}
}

func TestRunContextPerConfigTimeout(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.L1Sizes = opt.L1Sizes[:1]
	opt.L2Sizes = []int64{0}
	opt.Refs = 200_000 // long enough to cross the ctxStream check interval
	opt.Timeout = time.Nanosecond
	points, err := RunContext(context.Background(), w, opt)
	if len(points) != 0 {
		t.Errorf("timed-out sweep returned %d points", len(points))
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *ConfigError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v does not wrap context.DeadlineExceeded", err)
	}
}

func TestRunContextRetrySucceeds(t *testing.T) {
	w := testWorkload(t)
	var mu sync.Mutex
	attempts := make(map[string]int)
	withEvalHook(t, func(cfg core.Config) {
		mu.Lock()
		defer mu.Unlock()
		label := Label(cfg)
		if attempts[label]++; attempts[label] == 1 {
			panic("transient failure")
		}
	})
	opt := smallOpt()
	opt.Retries = 1
	points, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatalf("retried sweep failed: %v", err)
	}
	if total := len(Configs(opt)); len(points) != total {
		t.Errorf("retried sweep completed %d/%d points", len(points), total)
	}
}

func TestRunContextRetriesExhausted(t *testing.T) {
	w := testWorkload(t)
	var mu sync.Mutex
	attempts := 0
	withEvalHook(t, func(core.Config) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		panic("persistent failure")
	})
	opt := smallOpt()
	opt.L1Sizes = opt.L1Sizes[:1]
	opt.L2Sizes = []int64{0}
	opt.Retries = 2
	_, err := RunContext(context.Background(), w, opt)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *ConfigError", err)
	}
	if attempts != 3 {
		t.Errorf("made %d attempts, want 3 (1 + 2 retries)", attempts)
	}
}

// TestRunContextNegativeRetries: Retries below zero counts as zero. A
// sweep evaluates normally, and a failing configuration makes its one
// attempt and reports that attempt's cause, never a nil one.
func TestRunContextNegativeRetries(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.Retries = -1
	points, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatalf("sweep with Retries -1 failed: %v", err)
	}
	if total := len(Configs(opt)); len(points) != total {
		t.Fatalf("sweep with Retries -1 completed %d/%d points", len(points), total)
	}
	if _, err := NewEvaluator(w, opt).Evaluate(context.Background(), points[0].Config); err != nil {
		t.Fatalf("Evaluate with Retries -1: %v", err)
	}

	var mu sync.Mutex
	attempts := 0
	withEvalHook(t, func(core.Config) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		panic("persistent failure")
	})
	opt.L1Sizes = opt.L1Sizes[:1]
	opt.L2Sizes = []int64{0}
	_, err = RunContext(context.Background(), w, opt)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Cause == nil {
		t.Fatalf("err = %v, want a *ConfigError with a cause", err)
	}
	if attempts != 1 {
		t.Errorf("made %d attempts, want 1", attempts)
	}
}

func TestRunContextProgress(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	var mu sync.Mutex
	var events []ProgressEvent
	opt.Progress = func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
	total := len(Configs(opt))
	if len(events) != total {
		t.Fatalf("got %d progress events, want %d", len(events), total)
	}
	seen := make(map[string]bool)
	for _, ev := range events {
		if ev.Total != total {
			t.Errorf("event Total = %d, want %d", ev.Total, total)
		}
		if ev.Err != nil || ev.Skipped {
			t.Errorf("clean sweep reported %+v", ev)
		}
		seen[ev.Label] = true
	}
	if len(seen) != total {
		t.Errorf("progress covered %d distinct labels, want %d", len(seen), total)
	}
	if last := events[len(events)-1]; last.Done != total {
		t.Errorf("final event Done = %d, want %d", last.Done, total)
	}
}

func TestConfigErrorUnwrap(t *testing.T) {
	cause := errors.New("boom")
	err := error(&ConfigError{Label: "8:64", Workload: "gcc1", Cause: cause})
	if !errors.Is(err, cause) {
		t.Error("errors.Is does not reach the cause")
	}
	for _, want := range []string{"8:64", "gcc1", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ConfigError %q omits %q", err, want)
		}
	}
}

func TestFingerprintDistinguishesOptions(t *testing.T) {
	base := Options{}
	if base.Fingerprint() != (Options{}).Fingerprint() {
		t.Error("equal options fingerprint differently")
	}
	variants := []Options{
		{OffChipNS: 200},
		{L2Assoc: 1},
		{Policy: core.Exclusive},
		{DualPorted: true},
		{Refs: 123},
		{L1Sizes: []int64{1 << 10}},
	}
	for _, v := range variants {
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("options %+v fingerprint like the defaults", v)
		}
	}
}
