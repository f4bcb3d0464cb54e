package sweep_test

// The resume tests drive RunContext through internal/service's DiskStore,
// the durable store the cmd tools resume from; internal/service imports
// sweep, so they live in an external test package.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// storeSweep runs a 4-configuration espresso sweep (1:0, 1:8, 4:0, 4:8)
// on one worker over the DiskStore in dir, opened for this run and
// closed after it. It returns the points, the run's run_manifest, how
// many configurations it evaluated, and the run's error.
func storeSweep(ctx context.Context, t *testing.T, dir string, opt sweep.Options) ([]sweep.Point, obs.Event, int, error) {
	t.Helper()
	w, err := spec.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	store, err := service.OpenDiskStore(dir, service.DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	evals := 0
	progress := opt.Progress
	opt.Refs, opt.Workers = 20_000, 1
	opt.L1Sizes, opt.L2Sizes = []int64{1 << 10, 4 << 10}, []int64{0, 8 << 10}
	opt.Store, opt.Events = store, obs.NewEventLog(&journal)
	opt.Progress = func(ev sweep.ProgressEvent) {
		if !ev.Skipped {
			evals++
		}
		if progress != nil {
			progress(ev)
		}
	}
	points, runErr := sweep.RunContext(ctx, w, opt)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&journal)
	if err != nil {
		t.Fatal(err)
	}
	return points, evs[len(evs)-1], evals, runErr
}

// TestCheckpointResumeRoundTrip: every point a sweep evaluates reaches the
// store, so a rerun over the reopened store evaluates nothing, reports
// every configuration as skipped, and writes the same document byte for
// byte.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	full, _, total, err := storeSweep(context.Background(), t, dir, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(full) {
		t.Fatalf("first run evaluated %d configurations for %d points", total, len(full))
	}

	var events []sweep.ProgressEvent
	resumed, m, evals, err := storeSweep(context.Background(), t, dir, sweep.Options{
		Progress: func(ev sweep.ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if evals != 0 || m.Skipped != total {
		t.Errorf("fully stored sweep evaluated %d and skipped %d configurations, want 0 and %d", evals, m.Skipped, total)
	}
	if len(events) != total {
		t.Errorf("resumed run emitted %d progress events, want %d", len(events), total)
	}
	for _, ev := range events {
		if !ev.Skipped {
			t.Errorf("event %+v not marked skipped", ev)
		}
	}
	var r, f bytes.Buffer
	if err := sweep.SaveJSON(&r, resumed); err != nil {
		t.Fatal(err)
	}
	if err := sweep.SaveJSON(&f, full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), f.Bytes()) {
		t.Errorf("resumed sweep output differs from the original:\n%s\nvs\n%s", r.Bytes(), f.Bytes())
	}
}

// TestInterruptedThenResumedMatchesUninterrupted: a sweep cancelled after
// k completions leaves k points in the store, and a rerun over the
// reopened store evaluates only the rest, reproducing the uninterrupted
// run's document byte for byte.
func TestInterruptedThenResumedMatchesUninterrupted(t *testing.T) {
	want, _, total, err := storeSweep(context.Background(), t, t.TempDir(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// SIGINT, modeled as a context cancel, lands after k completions.
	const k = 2
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, first, _, err := storeSweep(ctx, t, dir, sweep.Options{
		Progress: func(ev sweep.ProgressEvent) {
			if ev.Done == k {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) || len(partial) != k {
		t.Fatalf("interrupted run: %d/%d points, err = %v; want %d and cancellation", len(partial), total, err, k)
	}

	got, second, evals, err := storeSweep(context.Background(), t, dir, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evals != total-k || second.Skipped != k {
		t.Errorf("resumed run evaluated %d and skipped %d configurations, want %d and %d", evals, second.Skipped, total-k, k)
	}
	if first.Fingerprint == "" || first.Fingerprint != second.Fingerprint {
		t.Errorf("manifest fingerprints differ across resume: %q vs %q", first.Fingerprint, second.Fingerprint)
	}
	var g, w bytes.Buffer
	if err := sweep.SaveJSON(&g, got); err != nil {
		t.Fatal(err)
	}
	if err := sweep.SaveJSON(&w, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Errorf("resumed output differs from uninterrupted output:\n%s\nvs\n%s", g.Bytes(), w.Bytes())
	}
}

// TestResumeKeyedByOptions: a warm run over a reopened store evaluates
// nothing and returns exactly the cold run's points, Config included,
// even for an L2 replacement policy the persisted shape does not carry;
// a changed result-determining option gets no hits at all.
func TestResumeKeyedByOptions(t *testing.T) {
	dir := t.TempDir()
	opt := sweep.Options{L2Policy: cache.LRU}
	cold, _, total, err := storeSweep(context.Background(), t, dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, m, evals, err := storeSweep(context.Background(), t, dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 0 || m.Skipped != total {
		t.Errorf("warm run evaluated %d and skipped %d configurations, want 0 and %d", evals, m.Skipped, total)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm points differ from cold points:\n%+v\nvs\n%+v", warm, cold)
	}

	opt.OffChipNS = 200
	if _, m, evals, err = storeSweep(context.Background(), t, dir, opt); err != nil || evals != total || m.Skipped != 0 {
		t.Errorf("changed off-chip time: %d evaluations and %d hits (err %v), want %d and 0", evals, m.Skipped, err, total)
	}
}
