package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
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
// the context's error, and the next ones run the stage again and get the
// exact points, a follower's and a direct reader's.
func TestEvaluatorStageRerunsAfterCancel(t *testing.T) {
	w := testWorkload(t)
	cfgs := Configs(Options{L1Sizes: []int64{4 << 10}, L2Sizes: []int64{0, 64 << 10}})
	cfgs = append(cfgs, Configs(Options{L1Sizes: []int64{4 << 10}, L2Sizes: []int64{64 << 10}, Policy: core.Inclusive})...)
	want := Evaluate(w, cfgs[1], Options{Refs: 2_000_000})
	wantDirect := Evaluate(w, cfgs[2], Options{Refs: 2_000_000})
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
		if got, err = e.Evaluate(context.Background(), cfgs[2]); err != nil || !reflect.DeepEqual(got, wantDirect) {
			t.Fatalf("direct point after a re-run stage (err %v)\n%+v\nwant\n%+v", err, got, wantDirect)
		}
		spans := indexByName(opt.Trace.Snapshot())
		gens := spans["generate"]
		if len(gens) == 2 && gens[0].Attr("refs") != "2000000" && gens[1].Attr("refs") == "2000000" {
			// The cut stage stopped its readers before it returned.
			if reps, reads := spans["replay"], spans["read"]; len(reps) != 2 || len(reads) != 2 {
				t.Fatalf("%d replay and %d read spans, want the cut stage's and the re-run's", len(reps), len(reads))
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
		held := e.groups[0].rd != nil
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
	readTestHook = func([]core.Config) { panic("injected replay panic") }
	defer func() { readTestHook = nil }()
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
	e.close() // no follower outlives the test, to read a hook another sets
	if gens := indexByName(opt.Trace.Snapshot())["generate"]; len(gens) != 1 || gens[0].Attr("refs") != "20000" {
		t.Errorf("generate spans %+v, want one stage over the whole trace", gens)
	}
}

// TestEvaluatorReaderPanicFailsItsConfig makes one direct reader panic:
// that configuration must fail, after its retry, as a *ConfigError that
// carries the panic, while every other configuration of the evaluator,
// the other direct readers' and the followers', keeps its exact point.
func TestEvaluatorReaderPanicFailsItsConfig(t *testing.T) {
	w := testWorkload(t)
	opt := Options{Refs: 20_000, Retries: 1, Metrics: obs.NewRegistry()}
	cfgs := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0, 16 << 10}})
	cfgs = append(cfgs, Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{8 << 10, 16 << 10}, Policy: core.Inclusive})...)
	bad := cfgs[len(cfgs)-1]
	readTestHook = func(group []core.Config) {
		if group[0] == bad {
			panic("injected reader panic")
		}
	}
	defer func() { readTestHook = nil }()
	e := NewEvaluator(w, opt, cfgs)
	for _, cfg := range cfgs {
		p, err := e.Evaluate(context.Background(), cfg)
		if cfg == bad {
			var ce *ConfigError
			var pe panicError
			if !errors.As(err, &ce) || !errors.As(err, &pe) || !strings.Contains(err.Error(), "injected reader panic") {
				t.Errorf("%s: point %+v, err %v; want a *ConfigError carrying the reader's panic", cfg, p, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", cfg, err)
		} else if want := Evaluate(w, cfg, Options{Refs: opt.Refs}); !reflect.DeepEqual(p, want) {
			t.Errorf("%s: evaluator point\n%+v\nSystem.Run point\n%+v", cfg, p, want)
		}
	}
	if got := opt.Metrics.Snapshot().Counters[MetricPanics]; got != 2 {
		t.Errorf("%s = %d, want 2 (two attempts of the one configuration)", MetricPanics, got)
	}
}

// TestEvaluatorSkipDuringStage skips an inclusive configuration while
// its reader walks the stage's first chunk, holding up the generator.
// The skip must stop that reader, the stage must still finish and leave
// the skipped configuration's group without a reader, and every other
// configuration must get its exact point; the skipped one, evaluated
// after all, gets its exact point from a stage of its own.
func TestEvaluatorSkipDuringStage(t *testing.T) {
	w := testWorkload(t)
	const refs = 200_000
	opt := Options{Refs: refs, Workers: 2, Trace: span.NewTracer()}
	cfgs := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{0, 16 << 10}})
	cfgs = append(cfgs, Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{8 << 10, 16 << 10}, Policy: core.Inclusive})...)
	skipped := cfgs[len(cfgs)-1]
	walking, skippedNow := make(chan struct{}), make(chan struct{})
	var once sync.Once
	readTestHook = func(group []core.Config) {
		if group[0] == skipped {
			once.Do(func() {
				close(walking)
				<-skippedNow
			})
		}
	}
	defer func() { readTestHook = nil }()
	e := NewEvaluator(w, opt, cfgs)

	got := make([]Point, len(cfgs))
	errs := make(chan error, 1)
	go func() {
		var err error
		got[0], err = e.Evaluate(context.Background(), cfgs[0])
		errs <- err
	}()
	<-walking
	e.Skip(skipped)
	close(skippedNow)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	held := e.group[skipped].rd != nil
	e.mu.Unlock()
	if held {
		t.Error("the skipped configuration's group kept its reader after the stage")
	}
	for i, cfg := range cfgs[1:] {
		var err error
		if got[i+1], err = e.Evaluate(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
	}
	for i, cfg := range cfgs {
		if want := Evaluate(w, cfg, Options{Refs: refs}); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: evaluator point\n%+v\nSystem.Run point\n%+v", cfg, got[i], want)
		}
	}
	e.close()
	spans := indexByName(opt.Trace.Snapshot())
	if gens := spans["generate"]; len(gens) != 2 || gens[0].Attr("refs") != strconv.Itoa(refs) {
		t.Errorf("generate spans %+v, want the whole stage and the skipped configuration's own", gens)
	}
	// The stage's reader of the skipped configuration stopped walking,
	// and released the rest of the chunks unwalked; its own stage's
	// reader walked the whole trace.
	var walked []string
	for _, d := range spans["read"] {
		if d.Attr("label") == Label(skipped) {
			walked = append(walked, d.Attr("refs"))
		}
	}
	if n, err := strconv.Atoi(walked[0]); len(walked) != 2 || err != nil || n >= refs || walked[1] != strconv.Itoa(refs) {
		t.Errorf("the skipped configuration's readers walked %v references, want fewer than %d, then %d", walked, refs, refs)
	}
}

// TestEvaluatorTimeoutBoundsTheReaderWait checks that Options.Timeout
// bounds a direct configuration's attempt as it bounds a replayed one's:
// a timeout that has already passed fails the wait for the reader's
// result, but not the stage, which still generates the whole trace and
// starts one reader per configuration.
func TestEvaluatorTimeoutBoundsTheReaderWait(t *testing.T) {
	w := testWorkload(t)
	cfgs := Configs(Options{L1Sizes: []int64{1 << 10}, L2Sizes: []int64{8 << 10, 16 << 10}, Policy: core.Inclusive})
	opt := Options{Refs: 20_000, Timeout: time.Nanosecond, Trace: span.NewTracer()}
	e := NewEvaluator(w, opt, cfgs)
	for _, cfg := range cfgs {
		var ce *ConfigError
		if _, err := e.Evaluate(context.Background(), cfg); !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want a *ConfigError wrapping context.DeadlineExceeded", cfg, err)
		}
	}
	e.close() // the readers' spans end with them
	spans := indexByName(opt.Trace.Snapshot())
	if gens := spans["generate"]; len(gens) != 1 || gens[0].Attr("refs") != "20000" {
		t.Errorf("generate spans %+v, want one stage over the whole trace", gens)
	}
	if reads := spans["read"]; len(reads) != len(cfgs) {
		t.Errorf("read spans %+v, want one per configuration", reads)
	}
}

// TestDirectReaderAllocationIsFlat evaluates one inclusive configuration
// through an Evaluator at 1M and at 8M references. A direct reader walks
// the stage's ring of chunks, so what the evaluation allocates beyond
// generating the trace stays within a fixed multiple of the ring and
// does not grow with the trace, where keeping the trace for the
// configuration would take 16 B per reference. The generator's own
// allocation grows with the trace's footprint (its LRU stack holds every
// line referenced so far), so it is measured alone, over the same
// stream, and subtracted. The collector is off while the test measures,
// so that the arena pool the generator draws on is emptied only between
// runs, by the two collections before each; the race detector empties
// it at random, so the test needs a build without it.
func TestDirectReaderAllocationIsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	w := testWorkload(t)
	cfg := Configs(Options{L1Sizes: []int64{8 << 10}, L2Sizes: []int64{64 << 10}, Policy: core.Inclusive})[0]
	const ring = chunkBuffers * chunkRefs * 16 // bytes of trace.Ref
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	alloc := func(run func()) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	beyond := func(refs uint64) int64 {
		gen := alloc(func() {
			st, buf := w.Stream(refs), make([]trace.Ref, chunkRefs)
			for trace.Fill(st, buf) == len(buf) {
			}
		})
		eval := alloc(func() {
			e := NewEvaluator(w, Options{Refs: refs}, []core.Config{cfg})
			if _, err := e.Evaluate(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
		return eval - gen
	}
	short, long := beyond(1_000_000), beyond(8_000_000)
	t.Logf("allocated %d B beyond generation at 1M references, %d B at 8M; the ring is %d B", short, long, ring)
	if long > 8*ring {
		t.Errorf("allocated %d B beyond generation over 8M references, more than 8 rings (%d B)", long, 8*ring)
	}
	if long > 2*short || short > 2*long {
		t.Errorf("allocated %d B beyond generation at 1M references and %d B at 8M, want them within 2x", short, long)
	}
}
