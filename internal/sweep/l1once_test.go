package sweep

import (
	"context"
	"reflect"
	"strings"
	"sync"
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

func hasCounter(r *obs.Registry, name string) bool {
	_, ok := r.Snapshot().Counters[name]
	return ok
}

// TestGroupQueueSharesRecordedPasses walks the queue through two groups:
// a group's jobs wait while its pass is being recorded, any worker may
// take them once it is, a started group goes before a new one, the pass
// is dropped after the group's last job, and cancellation releases a
// waiting worker.
func TestGroupQueueSharesRecordedPasses(t *testing.T) {
	cfg := Configs(l1OnceOpt())[0]
	g1 := &l1Group{jobs: []job{{0, cfg}, {1, cfg}, {2, cfg}}}
	g2 := &l1Group{jobs: []job{{3, cfg}, {4, cfg}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := newGroupQueue(ctx, []*l1Group{g1, g2})
	defer q.stop()

	type taken struct {
		j  job
		g  *l1Group
		ok bool
	}
	takeAsync := func() chan taken {
		ch := make(chan taken, 1)
		go func() {
			j, g, ok := q.take()
			ch <- taken{j, g, ok}
		}()
		return ch
	}
	want := func(ch chan taken, i int, g *l1Group) {
		t.Helper()
		select {
		case got := <-ch:
			if !got.ok || got.j.i != i || got.g != g {
				t.Fatalf("take = job %d ok %t, want job %d", got.j.i, got.ok, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("take blocked, want job %d", i)
		}
	}
	blocked := func(ch chan taken) {
		t.Helper()
		select {
		case got := <-ch:
			t.Fatalf("take = job %d ok %t while every group left is recording", got.j.i, got.ok)
		case <-time.After(20 * time.Millisecond):
		}
	}

	want(takeAsync(), 0, g1) // records g1's pass
	want(takeAsync(), 3, g2) // g1 is recording, so g2 starts
	waiter := takeAsync()
	blocked(waiter)

	g1.pass.Store(&core.L1Pass{})
	q.done(g1)
	want(waiter, 1, g1)
	want(takeAsync(), 2, g1) // g1 is recorded: a second worker shares it
	waiter = takeAsync()
	blocked(waiter) // only g2's recording job is left
	q.done(g1)
	q.done(g1)
	if g1.pass.Load() != nil {
		t.Error("g1 keeps its pass after its last job")
	}
	blocked(waiter)

	cancel()
	select {
	case got := <-waiter:
		if got.ok {
			t.Fatalf("take after cancel = job %d, want none", got.j.i)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release a waiting take")
	}
}

// TestRunContextSingleGroupUsesEveryWorker checks that a sweep with one
// L1 size, and so one group, replays its configurations on several
// workers at once once the pass is recorded.
func TestRunContextSingleGroupUsesEveryWorker(t *testing.T) {
	w := testWorkload(t)
	opt := l1OnceOpt()
	opt.L1Sizes = opt.L1Sizes[:1]
	opt.Workers = 2
	var (
		mu       sync.Mutex
		started  int
		together = make(chan struct{})
	)
	evalTestHook = func(core.Config) {
		mu.Lock()
		started++
		n := started
		mu.Unlock()
		switch n {
		case 1: // records the pass alone
		case 2:
			<-together
		case 3:
			close(together)
		}
	}
	defer func() { evalTestHook = nil }()
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
		t.Fatal("the group's replays never ran on two workers at once")
	}
}
