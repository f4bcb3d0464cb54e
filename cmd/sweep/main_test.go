package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twolevel/internal/sweep"
)

// fakeClock steps a deterministic time forward for the throttle tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestProgressPrinterThrottles(t *testing.T) {
	var buf strings.Builder
	clk := &fakeClock{t: time.Unix(1000, 0)}
	report := newProgressPrinter(&buf, "gcc1", time.Second, clk.now)

	// 10 successes 100ms apart span under a second: only the first prints.
	for i := 1; i <= 10; i++ {
		report(sweep.ProgressEvent{Done: i, Total: 100, Label: "x"})
		clk.advance(100 * time.Millisecond)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("got %d progress lines, want 1:\n%s", lines, buf.String())
	}
}

func TestProgressPrinterAlwaysPrintsFailuresAndFinal(t *testing.T) {
	var buf strings.Builder
	clk := &fakeClock{t: time.Unix(1000, 0)}
	report := newProgressPrinter(&buf, "gcc1", time.Second, clk.now)

	report(sweep.ProgressEvent{Done: 1, Total: 3, Label: "a"})
	report(sweep.ProgressEvent{Done: 2, Total: 3, Label: "b", Err: errors.New("boom")})
	report(sweep.ProgressEvent{Done: 3, Total: 3, Label: "c"})

	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("progress output not newline-terminated: %q", out)
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("got %d lines, want 3 (first, failure, final):\n%s", got, out)
	}
	if !strings.Contains(out, "FAILED: boom") {
		t.Fatalf("failure line missing:\n%s", out)
	}
	if !strings.Contains(out, "3/3") {
		t.Fatalf("final line missing:\n%s", out)
	}
}

func TestProgressPrinterResumesAfterWindow(t *testing.T) {
	var buf strings.Builder
	clk := &fakeClock{t: time.Unix(1000, 0)}
	report := newProgressPrinter(&buf, "gcc1", time.Second, clk.now)

	report(sweep.ProgressEvent{Done: 1, Total: 10, Label: "a"})
	clk.advance(500 * time.Millisecond)
	report(sweep.ProgressEvent{Done: 2, Total: 10, Label: "b"}) // suppressed
	clk.advance(600 * time.Millisecond)
	report(sweep.ProgressEvent{Done: 3, Total: 10, Label: "c"}) // 1.1s since last print

	out := buf.String()
	if strings.Contains(out, " b ") || strings.Contains(out, "2/10") {
		t.Fatalf("suppressed line printed:\n%s", out)
	}
	if !strings.Contains(out, "3/10") {
		t.Fatalf("post-window line missing:\n%s", out)
	}
}

// TestStoreDirUsageExit: -store-dir is a usage error with -fast, whose
// points never enter stores, and with -accuracy, whose exact-tier timing
// store hits would fake. A negative -retries is one too, rather than a
// sweep whose every configuration fails. Each exits 2 before any sweep
// runs.
func TestStoreDirUsageExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fast", "-store-dir", t.TempDir()}, "-store-dir cannot be combined"},
		{[]string{"-accuracy", "-store-dir", t.TempDir()}, "-store-dir cannot be combined"},
		{[]string{"-retries", "-1"}, "-retries -1 is negative"},
	} {
		out, err := exec.Command(bin, append(c.args, "-refs", "1000")...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("sweep %v: err = %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("sweep %v: output does not say %q:\n%s", c.args, c.want, out)
		}
	}
}
