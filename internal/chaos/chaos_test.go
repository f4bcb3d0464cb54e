package chaos

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestNilInjectorIsInert: the obs nil-safety contract — every method on
// a nil injector is a usable no-op.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	in.Install(Rule{Site: "x", Panic: "boom"})
	if err := in.Hit("x"); err != nil {
		t.Fatalf("nil injector Hit = %v", err)
	}
	if in.Hits("x") != 0 || in.Fired("x") != 0 {
		t.Fatal("nil injector counted hits")
	}
	var buf bytes.Buffer
	w := in.Writer("x", &buf)
	if n, err := w.Write([]byte("ok")); n != 2 || err != nil {
		t.Fatalf("nil injector Writer = %d, %v", n, err)
	}
	if buf.String() != "ok" {
		t.Fatalf("nil injector altered the write: %q", buf.String())
	}
}

// TestHitErrorAfterTimes: After skips early hits, Times caps firings,
// and the default error wraps ErrInjected.
func TestHitErrorAfterTimes(t *testing.T) {
	in := New(1)
	in.Install(Rule{Site: "eval", After: 2, Times: 3})
	var failures int
	for i := 0; i < 10; i++ {
		if err := in.Hit("eval"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error %v does not wrap ErrInjected", i, err)
			}
			if i < 2 {
				t.Fatalf("rule fired on hit %d, before After=2", i)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("rule fired %d times, want 3", failures)
	}
	if in.Hits("eval") != 10 || in.Fired("eval") != 3 {
		t.Fatalf("accounting = %d hits / %d fired, want 10/3", in.Hits("eval"), in.Fired("eval"))
	}
}

// TestHitPanicAndCancellation: panic faults panic, and error faults can
// impersonate context cancellation for errors.Is dispatch.
func TestHitPanicAndCancellation(t *testing.T) {
	in := New(1)
	in.Install(Rule{Site: "panic", Panic: "chaos-boom"})
	in.Install(Rule{Site: "cancel", Err: context.Canceled})
	func() {
		defer func() {
			if r := recover(); r != "chaos-boom" {
				t.Fatalf("recovered %v, want chaos-boom", r)
			}
		}()
		in.Hit("panic") //nolint:errcheck // the panic is the result
		t.Fatal("panic rule did not panic")
	}()
	if err := in.Hit("cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault = %v, want context.Canceled", err)
	}
}

// TestHitDelay: a pure-delay rule injects latency but not failure.
func TestHitDelay(t *testing.T) {
	in := New(1)
	in.Install(Rule{Site: "slow", Delay: 20 * time.Millisecond, Times: 1})
	start := time.Now()
	if err := in.Hit("slow"); err != nil {
		t.Fatalf("delay rule returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("hit returned after %v, want >= 20ms", d)
	}
	if err := in.Hit("slow"); err != nil {
		t.Fatalf("exhausted rule still fired: %v", err)
	}
}

// TestWriterShort: a Short rule persists a prefix and fails — the torn
// write a crash leaves behind.
func TestWriterShort(t *testing.T) {
	in := New(1)
	in.Install(Rule{Site: "w", Short: true, Times: 1})
	var buf bytes.Buffer
	w := in.Writer("w", &buf)
	payload := []byte("0123456789")
	n, err := w.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error = %v, want ErrInjected", err)
	}
	if n != 5 || buf.String() != "01234" {
		t.Fatalf("short write persisted %d bytes %q, want the 5-byte prefix", n, buf.String())
	}
	if n, err := w.Write(payload); n != 10 || err != nil {
		t.Fatalf("write after rule exhausted = %d, %v", n, err)
	}
}

// TestWriterCorrupt: a Corrupt rule flips exactly one non-delimiter
// byte and reports success.
func TestWriterCorrupt(t *testing.T) {
	in := New(42)
	in.Install(Rule{Site: "w", Corrupt: true, Times: 1})
	var buf bytes.Buffer
	w := in.Writer("w", &buf)
	payload := []byte(`{"k":"v"}` + "\n")
	n, err := w.Write(payload)
	if n != len(payload) || err != nil {
		t.Fatalf("corrupt write = %d, %v, want full success", n, err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, payload) {
		t.Fatal("corrupt rule left the payload intact")
	}
	if got[len(got)-1] != '\n' {
		t.Fatal("corrupt rule flipped the record delimiter")
	}
	diff := 0
	for i := range payload {
		if payload[i] != got[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt rule flipped %d bytes, want exactly 1", diff)
	}
}

// TestWriterErr: an error rule fails the write without persisting
// anything.
func TestWriterErr(t *testing.T) {
	in := New(1)
	werr := errors.New("disk on fire")
	in.Install(Rule{Site: "w", Err: werr, Times: 1})
	var buf bytes.Buffer
	w := in.Writer("w", &buf)
	if n, err := w.Write([]byte("data")); n != 0 || !errors.Is(err, werr) {
		t.Fatalf("error write = %d, %v, want 0 bytes and the rule error", n, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("failed write persisted %q", buf.String())
	}
}

// TestDeterminism: the same seed and rules fire on the same hits.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		in := New(7)
		in.Install(Rule{Site: "p", P: 0.3})
		var fired []int
		for i := 0; i < 64; i++ {
			if in.Hit("p") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("P=0.3 rule fired %d/64 times; expected a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("two seeded runs fired differently: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two seeded runs fired differently: %v vs %v", a, b)
		}
	}
}

// TestConcurrentHitsKeepExactOrdinals: many goroutines hammering one
// site concurrently must still observe race-free ordinal accounting —
// exactly Hits = G×H total hits, exactly Times firings for an
// After/Times rule, and never more. This is the contract the service's
// worker pool relies on when its workers share an injector; run under
// -race it also proves the locking.
func TestConcurrentHitsKeepExactOrdinals(t *testing.T) {
	const (
		goroutines = 8
		hitsEach   = 200
		after      = 37
		times      = 53
	)
	in := New(3)
	in.Install(Rule{Site: "c", After: after, Times: times})

	var wg sync.WaitGroup
	errs := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < hitsEach; i++ {
				if in.Hit("c") != nil {
					n++
				}
			}
			errs <- n
		}()
	}
	wg.Wait()
	close(errs)

	total := 0
	for n := range errs {
		total += n
	}
	if got := in.Hits("c"); got != goroutines*hitsEach {
		t.Fatalf("Hits = %d, want %d", got, goroutines*hitsEach)
	}
	if got := in.Fired("c"); got != times {
		t.Fatalf("Fired = %d, want exactly %d", got, times)
	}
	if total != times {
		t.Fatalf("goroutines saw %d injected errors, want exactly %d", total, times)
	}
}

// TestConcurrentRulesSequenceWithoutOverlap: two rules on the same site
// with adjacent After windows must partition the hit sequence exactly —
// rule one fires its Times, then rule two — even when the hits arrive
// from concurrent goroutines.
func TestConcurrentRulesSequenceWithoutOverlap(t *testing.T) {
	const (
		goroutines = 6
		hitsEach   = 100
	)
	errA := errors.New("phase-a")
	errB := errors.New("phase-b")
	in := New(5)
	in.Install(Rule{Site: "s", After: 0, Times: 10, Err: errA})
	in.Install(Rule{Site: "s", After: 10, Times: 10, Err: errB})

	var wg sync.WaitGroup
	counts := make(chan [2]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c [2]int
			for i := 0; i < hitsEach; i++ {
				switch err := in.Hit("s"); {
				case errors.Is(err, errA):
					c[0]++
				case errors.Is(err, errB):
					c[1]++
				case err != nil:
					t.Errorf("unexpected error: %v", err)
				}
			}
			counts <- c
		}()
	}
	wg.Wait()
	close(counts)

	var a, b int
	for c := range counts {
		a += c[0]
		b += c[1]
	}
	if a != 10 || b != 10 {
		t.Fatalf("phase firings = %d/%d, want exactly 10/10", a, b)
	}
	if got := in.Fired("s"); got != 20 {
		t.Fatalf("Fired = %d, want 20", got)
	}
	if got := in.Hits("s"); got != goroutines*hitsEach {
		t.Fatalf("Hits = %d, want %d", got, goroutines*hitsEach)
	}
}
