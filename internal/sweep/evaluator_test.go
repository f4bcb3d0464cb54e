package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/trace"
)

// mixedConfigs is a set that takes every evaluation path: the
// conventional, exclusive and inclusive sweeps of opt (single-level
// configurations among them), plus write-through and 2-way-L1 copies of
// its two-level configurations.
func mixedConfigs(opt Options) []core.Config {
	var cfgs []core.Config
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		o := opt
		o.Policy = pol
		cfgs = append(cfgs, Configs(o)...)
	}
	o := opt
	o.TwoLevelOnly = true
	for _, cfg := range Configs(o) {
		wt := cfg
		wt.Writes = core.WriteThroughNoAllocate
		assoc := cfg
		assoc.L1I.Assoc, assoc.L1D.Assoc = 2, 2
		cfgs = append(cfgs, wt, assoc)
	}
	return cfgs
}

// TestEvaluatorMixedSetMatchesDirectPaths is the Evaluator's
// differential test. Over a set mixing every policy, write modes,
// associative L1s and single-level configurations, evaluated
// concurrently, every point must equal sweep.Evaluate's (System.Run over
// a fresh stream) and, for the configurations a sweep enumerates,
// RunContext's. The stage must run once, a configuration outside the set
// must fail, and the cache_* and core_* counters must equal what
// instrumenting System.Run for every configuration accumulates.
func TestEvaluatorMixedSetMatchesDirectPaths(t *testing.T) {
	w := testWorkload(t)
	opt := l1OnceOpt()
	opt.L1Sizes = opt.L1Sizes[:2]
	cfgs := mixedConfigs(opt)
	eopt := opt
	eopt.Metrics = obs.NewRegistry()
	eopt.Trace = span.NewTracer()
	e := NewEvaluator(w, eopt, cfgs)

	got := make([]Point, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := e.Evaluate(context.Background(), cfg)
			if err != nil {
				t.Errorf("%s: %v", cfg, err)
			}
			got[i] = p
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if want := Evaluate(w, cfg, opt); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: evaluator point\n%+v\nSystem.Run point\n%+v", cfg, got[i], want)
		}
	}

	byCfg := map[core.Config]Point{}
	for _, p := range got {
		byCfg[p.Config] = p
	}
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		o := opt
		o.Policy = pol
		sweep, err := RunContext(context.Background(), w, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range sweep {
			if p, ok := byCfg[want.Config]; !ok || !reflect.DeepEqual(p, want) {
				t.Errorf("%s %s: evaluator point\n%+v\nRunContext point\n%+v", pol, want.Label, p, want)
			}
		}
	}

	spans := indexByName(eopt.Trace.Snapshot())
	if n := len(spans["generate"]); n != 1 {
		t.Errorf("%d generate spans, want the stage once", n)
	}
	if n, want := len(spans["l1-pass"]), len(opt.L1Sizes); n != want {
		t.Errorf("%d l1-pass spans, want %d (one per direct-mapped L1 geometry)", n, want)
	}
	if n := len(spans["config"]); n != len(cfgs) {
		t.Errorf("%d config spans, want %d", n, len(cfgs))
	}

	outside := cfgs[0]
	outside.L1I.Size, outside.L1D.Size = 64<<10, 64<<10
	var ce *ConfigError
	if _, err := e.Evaluate(context.Background(), outside); !errors.As(err, &ce) {
		t.Errorf("evaluating a configuration outside the set: err = %v, want a *ConfigError", err)
	}

	want := obs.NewRegistry()
	refs := trace.Collect(w.Stream(opt.Refs), 0)
	for _, cfg := range cfgs {
		sys := core.NewSystem(cfg)
		sys.Instrument(want)
		sys.Run(trace.NewSliceStream(refs))
	}
	gotCounters := eopt.Metrics.Snapshot().Counters
	for name, v := range want.Snapshot().Counters {
		if gv := gotCounters[name]; gv != v {
			t.Errorf("%s = %d, System.Run path %d", name, gv, v)
		}
	}
	for name := range gotCounters {
		if (strings.HasPrefix(name, "cache_") || strings.HasPrefix(name, "core_")) && !hasCounter(want, name) {
			t.Errorf("the evaluator registers %s, which the System.Run path does not", name)
		}
	}
}

// TestEvaluatorStageRerunsAfterCancel cancels the evaluation that runs
// the stage while the stage is still generating: that evaluation returns
// the context's error, and the next one runs the stage again and gets
// the exact point.
func TestEvaluatorStageRerunsAfterCancel(t *testing.T) {
	w := testWorkload(t)
	cfgs := Configs(Options{L1Sizes: []int64{4 << 10}, L2Sizes: []int64{0, 64 << 10}})
	want := Evaluate(w, cfgs[1], Options{Refs: 2_000_000})
	// The deadline outlasts the start of a 2M-reference stage but not
	// the stage; a stalled host can let it pass before the stage starts,
	// so the scenario is retried until the deadline cuts a stage.
	for attempt := 1; ; attempt++ {
		opt := Options{Refs: 2_000_000, Trace: span.NewTracer()}
		e := NewEvaluator(w, opt, cfgs)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := e.Evaluate(ctx, cfgs[0])
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("evaluation cancelled during the stage: err = %v, want context.DeadlineExceeded", err)
		}
		got, err := e.Evaluate(context.Background(), cfgs[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point after a re-run stage\n%+v\nwant\n%+v", got, want)
		}
		spans := indexByName(opt.Trace.Snapshot())
		gens := spans["generate"]
		if len(gens) == 2 && gens[0].Attr("refs") != "2000000" && gens[1].Attr("refs") == "2000000" {
			// The cut stage stopped its follower before it returned.
			if reps := spans["replay"]; len(reps) != 2 {
				t.Fatalf("%d replay spans, want the cut stage's and the re-run's", len(reps))
			}
			return
		}
		if attempt == 5 {
			t.Fatalf("in %d attempts the deadline never cut a stage short; generate spans: %+v", attempt, gens)
		}
	}
}

func indexByName(spans []span.Data) map[string][]span.Data {
	out := map[string][]span.Data{}
	for _, d := range spans {
		out[d.Name] = append(out[d.Name], d)
	}
	return out
}

// TestEvaluatorDropsPasses checks that a group's replay result is
// dropped once its last configuration is evaluated, and that evaluating
// a configuration again afterwards still gives its exact point, from a
// fresh stream.
func TestEvaluatorDropsPasses(t *testing.T) {
	w := testWorkload(t)
	opt := Options{Refs: 20_000}
	conv := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0, 16 << 10}})
	incl := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{16 << 10}, Policy: core.Inclusive})[0]
	e := NewEvaluator(w, opt, append(conv, incl))
	for i, cfg := range append(conv, incl, conv[0]) {
		p, err := e.Evaluate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := Evaluate(w, cfg, opt); !reflect.DeepEqual(p, want) {
			t.Errorf("evaluation %d (%s) differs from System.Run", i, cfg)
		}
		e.mu.Lock()
		held := e.groups[0].fol != nil
		e.mu.Unlock()
		if want := i == 0; held != want {
			t.Errorf("after evaluation %d: replay held %t, want %t", i, held, want)
		}
	}
}

// TestEvaluatorFollowerPanicFailsGroup makes every follower panic: each
// configuration of the group must fail, after its retry, as a
// *ConfigError that carries the panic, and never get a point from a
// fallback simulation.
func TestEvaluatorFollowerPanicFailsGroup(t *testing.T) {
	w := testWorkload(t)
	cfgs := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0, 16 << 10}})
	followTestHook = func() { panic("injected replay panic") }
	defer func() { followTestHook = nil }()
	reg := obs.NewRegistry()
	e := NewEvaluator(w, Options{Refs: 20_000, Retries: 1, Metrics: reg}, cfgs)
	for _, cfg := range cfgs {
		p, err := e.Evaluate(context.Background(), cfg)
		var ce *ConfigError
		var pe panicError
		if !errors.As(err, &ce) || !errors.As(err, &pe) || !strings.Contains(err.Error(), "injected replay panic") {
			t.Errorf("%s: point %+v, err %v; want a *ConfigError carrying the follower's panic", cfg, p, err)
		}
	}
	if got, want := reg.Snapshot().Counters[MetricPanics], uint64(2*len(cfgs)); got != want {
		t.Errorf("%s = %d, want %d (two attempts per configuration)", MetricPanics, got, want)
	}
}

// TestEvaluatorTimeoutBoundsTheWait checks what Options.Timeout bounds
// on the replay path: an attempt's wait for its group's replay, which a
// timeout that has already passed fails, but not the stage, which still
// generates the whole trace.
func TestEvaluatorTimeoutBoundsTheWait(t *testing.T) {
	w := testWorkload(t)
	cfgs := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0, 16 << 10}})
	opt := Options{Refs: 20_000, Timeout: time.Nanosecond, Trace: span.NewTracer()}
	e := NewEvaluator(w, opt, cfgs)
	for _, cfg := range cfgs {
		var ce *ConfigError
		if _, err := e.Evaluate(context.Background(), cfg); !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want a *ConfigError wrapping context.DeadlineExceeded", cfg, err)
		}
	}
	if gens := indexByName(opt.Trace.Snapshot())["generate"]; len(gens) != 1 || gens[0].Attr("refs") != "20000" {
		t.Errorf("generate spans %+v, want one stage over the whole trace", gens)
	}
}
