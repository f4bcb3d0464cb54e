package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// l1OnceOpt is a sweep whose L1 groups have several members, with a
// line size, L2 shape and worker count away from the defaults.
func l1OnceOpt() Options {
	return Options{
		Refs:     30_000,
		L1Sizes:  []int64{1 << 10, 2 << 10, 8 << 10},
		L2Sizes:  []int64{0, 16 << 10, 32 << 10, 64 << 10},
		L2Assoc:  2,
		L2Policy: cache.LRU,
		LineSize: 32,
		Workers:  3,
	}
}

// TestRunContextMatchesDirectSimulation checks that every policy's sweep
// gives, point for point, what evaluating each configuration on the
// direct System.Run path gives. Conventional and exclusive sweeps take
// their points from L1 passes, and inclusive sweeps do for their
// single-level configurations.
func TestRunContextMatchesDirectSimulation(t *testing.T) {
	w := testWorkload(t)
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		opt := l1OnceOpt()
		opt.Policy = pol
		got, err := RunContext(context.Background(), w, opt)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		var want []Point
		for _, cfg := range Configs(opt) {
			want = append(want, Evaluate(w, cfg, opt))
		}
		SortByArea(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunContext points differ from direct simulation:\n got %+v\nwant %+v", pol, got, want)
		}
	}
}

// TestRunContextMetricsMatchDirectPath checks, for the conventional and
// the exclusive policy, that a sweep's registry holds the cache and core
// counters that instrumenting System.Run for every configuration would
// have accumulated.
func TestRunContextMetricsMatchDirectPath(t *testing.T) {
	w := testWorkload(t)
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive} {
		opt := l1OnceOpt()
		opt.Policy = pol
		opt.Metrics = obs.NewRegistry()
		if _, err := RunContext(context.Background(), w, opt); err != nil {
			t.Fatal(err)
		}
		want := obs.NewRegistry()
		refs := trace.Collect(w.Stream(opt.Refs), 0)
		for _, cfg := range Configs(opt) {
			sys := core.NewSystem(cfg)
			sys.Instrument(want)
			sys.Run(trace.NewSliceStream(refs))
		}
		got := opt.Metrics.Snapshot().Counters
		checked := 0
		for name, v := range want.Snapshot().Counters {
			if gv, ok := got[name]; !ok || gv != v {
				t.Errorf("%s: %s = %d (present %t), direct path %d", pol, name, gv, ok, v)
			}
			checked++
		}
		for name := range got {
			if (strings.HasPrefix(name, "cache_") || strings.HasPrefix(name, "core_")) && !hasCounter(want, name) {
				t.Errorf("%s: sweep registers %s, which the direct path does not", pol, name)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: the direct path registered no counters", pol)
		}
		if pol == core.Exclusive && got["core_exclusive_swaps_total"] == 0 {
			t.Error("the exclusive sweep made no swaps, so the comparison misses that path")
		}
	}
}

// TestConcurrentEvaluateCountersMatchSerial checks that concurrent
// Evaluate calls sharing one registry leave every counter at the total
// that evaluating the same configurations one at a time leaves.
func TestConcurrentEvaluateCountersMatchSerial(t *testing.T) {
	w := testWorkload(t)
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		opt := l1OnceOpt()
		opt.Policy = pol
		cfgs := Configs(opt)

		opt.Metrics = obs.NewRegistry()
		serial := NewEvaluator(w, opt, cfgs)
		for _, cfg := range cfgs {
			if _, err := serial.Evaluate(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		want := opt.Metrics.Snapshot().Counters

		opt.Metrics = obs.NewRegistry()
		conc := NewEvaluator(w, opt, cfgs)
		var wg sync.WaitGroup
		for _, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := conc.Evaluate(context.Background(), cfg); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		got := opt.Metrics.Snapshot().Counters

		if want["cache_l1d_misses_total"] == 0 || want["core_offchip_fetches_total"] == 0 {
			t.Fatalf("%s: serial run counted no misses: %v", pol, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concurrent counters\n%v\nserial\n%v", pol, got, want)
		}
	}
}

func hasCounter(r *obs.Registry, name string) bool {
	_, ok := r.Snapshot().Counters[name]
	return ok
}

// TestRunContextReadersUseEveryWorker checks that the direct readers of
// an inclusive sweep walk on several workers at once: the first reader
// to take a token waits, holding it, until a second one walks.
func TestRunContextReadersUseEveryWorker(t *testing.T) {
	w := testWorkload(t)
	opt := l1OnceOpt()
	opt.L1Sizes = opt.L1Sizes[:1]
	opt.Policy = core.Inclusive
	opt.Workers = 2
	var (
		mu       sync.Mutex
		started  int
		together = make(chan struct{})
	)
	readTestHook = func([]core.Config) {
		mu.Lock()
		started++
		n := started
		mu.Unlock()
		switch n {
		case 1:
			<-together
		case 2:
			close(together)
		}
	}
	defer func() { readTestHook = nil }()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(context.Background(), w, opt)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the sweep's readers never walked on two workers at once")
	}
}

// TestRunContextCancelDuringTraceStage cancels a sweep while its trace
// stage is still generating and recording: the sweep must return the
// interrupted error promptly and start no configuration.
func TestRunContextCancelDuringTraceStage(t *testing.T) {
	w := testWorkload(t)
	opt := l1OnceOpt()
	opt.Refs = 1 << 25 // generating it all takes seconds
	var started atomic.Int32
	withEvalHook(t, func(core.Config) { started.Add(1) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	begin := time.Now()
	points, err := RunContext(ctx, w, opt)
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Errorf("cancelled trace stage returned after %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "interrupted after 0/") {
		t.Fatalf("err = %v, want the interrupted error", err)
	}
	if len(points) != 0 || started.Load() != 0 {
		t.Errorf("cancelled trace stage returned %d points and started %d configurations", len(points), started.Load())
	}
}

// TestRunContextGeneratorPanicReachesCaller checks that a panic on the
// trace stage's generator goroutine is raised again on the caller's
// goroutine, with its value, instead of crashing the process.
func TestRunContextGeneratorPanicReachesCaller(t *testing.T) {
	w := testWorkload(t)
	w.Gen.InstrFrac = 0 // NewGenerator panics on invalid parameters
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "InstrFrac") {
			t.Errorf("recovered %v, want the generator's panic", r)
		}
	}()
	RunContext(context.Background(), w, l1OnceOpt())
	t.Error("RunContext returned despite the generator's panic")
}
