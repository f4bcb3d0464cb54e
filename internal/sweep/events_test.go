package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"twolevel/internal/core"
	"twolevel/internal/obs"
)

// runWithJournal runs a sweep with an event journal attached and returns
// the parsed events.
func runWithJournal(t *testing.T, opt Options) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	opt.Events = obs.NewEventLog(&buf)
	if _, err := RunContext(context.Background(), testWorkload(t), opt); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// normalizeEvents zeroes the volatile fields (timestamps, durations,
// model outputs) so a journal can be compared against a golden text.
func normalizeEvents(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, len(evs))
	for i, e := range evs {
		e.TNS, e.DurNS, e.Area, e.TPI = 0, 0, 0, 0
		out[i] = e
	}
	return out
}

// TestEventJournalGolden pins the exact journal a small single-worker
// sweep emits, up to the volatile fields.
func TestEventJournalGolden(t *testing.T) {
	opt := smallOpt()
	opt.L1Sizes = opt.L1Sizes[:1] // 1:0 and 1:8 only
	evs := normalizeEvents(runWithJournal(t, opt))

	fp := opt.withDefaults().Fingerprint()
	golden := strings.TrimSpace(fmt.Sprintf(`
{"seq":1,"t_ns":0,"type":"sweep_start","workload":"espresso","fingerprint":%q,"total":2}
{"seq":2,"t_ns":0,"type":"config_start","workload":"espresso","label":"1:0"}
{"seq":3,"t_ns":0,"type":"config_done","workload":"espresso","label":"1:0","done":1,"total":2}
{"seq":4,"t_ns":0,"type":"config_start","workload":"espresso","label":"1:8"}
{"seq":5,"t_ns":0,"type":"config_done","workload":"espresso","label":"1:8","done":2,"total":2}
{"seq":6,"t_ns":0,"type":"sweep_done","workload":"espresso","done":2,"total":2}
{"seq":7,"t_ns":0,"type":"run_manifest","workload":"espresso","fingerprint":%q,"done":2,"total":2}
`, fp, fp))

	var got []string
	for _, e := range evs {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(line))
	}
	if g := strings.Join(got, "\n"); g != golden {
		t.Errorf("journal mismatch:\ngot:\n%s\nwant:\n%s", g, golden)
	}
}

// TestEventJournalMonotonic checks sequence numbers and timestamps never
// go backwards, even with parallel workers.
func TestEventJournalMonotonic(t *testing.T) {
	opt := smallOpt()
	opt.Workers = 4
	evs := runWithJournal(t, opt)
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.TNS < evs[i-1].TNS {
			t.Fatalf("event %d timestamp %d precedes event %d's %d", i, e.TNS, i-1, evs[i-1].TNS)
		}
	}
	if first, last := evs[0], evs[len(evs)-1]; first.Type != obs.EventSweepStart || last.Type != obs.EventRunManifest {
		t.Fatalf("journal bracketed by %q..%q, want %q..%q",
			first.Type, last.Type, obs.EventSweepStart, obs.EventRunManifest)
	}
}

// TestEventJournalRetryOrdering injects one transient panic and checks
// the journal shows start → retry → done for the victim, in order.
func TestEventJournalRetryOrdering(t *testing.T) {
	const victim = "4:8"
	var mu sync.Mutex
	attempts := make(map[string]int)
	withEvalHook(t, func(cfg core.Config) {
		mu.Lock()
		defer mu.Unlock()
		label := Label(cfg)
		if attempts[label]++; label == victim && attempts[label] == 1 {
			panic("transient failure")
		}
	})
	opt := smallOpt()
	opt.Retries = 1
	evs := runWithJournal(t, opt)

	var seq []string
	for _, e := range evs {
		if e.Label == victim {
			seq = append(seq, e.Type)
			if e.Type == obs.EventConfigRetry {
				if e.Attempt != 1 {
					t.Errorf("retry event attempt = %d, want 1", e.Attempt)
				}
				if !strings.Contains(e.Err, "transient failure") {
					t.Errorf("retry event err %q hides the panic", e.Err)
				}
			}
		}
	}
	want := []string{obs.EventConfigStart, obs.EventConfigRetry, obs.EventConfigDone}
	if strings.Join(seq, ",") != strings.Join(want, ",") {
		t.Fatalf("victim event sequence = %v, want %v", seq, want)
	}
}

// TestEventJournalPanicError checks a permanently failing configuration
// journals a config_error (not config_done) carrying the panic text.
func TestEventJournalPanicError(t *testing.T) {
	const victim = "1:8"
	withEvalHook(t, func(cfg core.Config) {
		if Label(cfg) == victim {
			panic("persistent failure")
		}
	})
	var buf bytes.Buffer
	opt := smallOpt()
	opt.Events = obs.NewEventLog(&buf)
	if _, err := RunContext(context.Background(), testWorkload(t), opt); err == nil {
		t.Fatal("panicking configuration produced no error")
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var errEv, doneEv int
	for _, e := range evs {
		if e.Label == victim {
			switch e.Type {
			case obs.EventConfigError:
				errEv++
				if !strings.Contains(e.Err, "persistent failure") {
					t.Errorf("config_error err %q hides the panic", e.Err)
				}
			case obs.EventConfigDone:
				doneEv++
			}
		}
	}
	if errEv != 1 || doneEv != 0 {
		t.Fatalf("victim journaled %d config_error and %d config_done events, want 1 and 0", errEv, doneEv)
	}
	last := evs[len(evs)-1]
	if last.Type != obs.EventRunManifest || last.Failed != 1 {
		t.Fatalf("manifest = %+v, want run_manifest with failed=1", last)
	}
}

// TestEventJournalResumeFingerprint checks a run resumed from a store
// journals the same fingerprint as the original and records every skip.
func TestEventJournalResumeFingerprint(t *testing.T) {
	opt := smallOpt()
	opt.Store = mapStore{}
	first := runWithJournal(t, opt)
	second := runWithJournal(t, opt)

	manifest := func(evs []obs.Event) obs.Event {
		for _, e := range evs {
			if e.Type == obs.EventRunManifest {
				return e
			}
		}
		t.Fatal("journal has no run_manifest")
		return obs.Event{}
	}
	m1, m2 := manifest(first), manifest(second)
	if m1.Fingerprint == "" || m1.Fingerprint != m2.Fingerprint {
		t.Fatalf("manifest fingerprints differ across resume: %q vs %q", m1.Fingerprint, m2.Fingerprint)
	}
	total := len(Configs(opt))
	if m2.Skipped != total || m2.Done != total {
		t.Fatalf("resumed manifest = %+v, want all %d configurations skipped", m2, total)
	}
	skips, evals := 0, 0
	for _, e := range second {
		switch e.Type {
		case obs.EventConfigSkipped:
			skips++
		case obs.EventConfigDone:
			evals++
		}
	}
	if skips != total || evals != 0 {
		t.Fatalf("resumed journal has %d config_skipped and %d config_done events, want %d and 0", skips, evals, total)
	}
}

// TestMetricsMatchJournal cross-checks the registry totals against the
// journal for the same run (the -metrics / -events agreement the cmd
// tools rely on).
func TestMetricsMatchJournal(t *testing.T) {
	reg := obs.NewRegistry()
	opt := smallOpt()
	opt.Metrics = reg
	evs := runWithJournal(t, opt)

	counts := make(map[string]int)
	for _, e := range evs {
		counts[e.Type]++
	}
	s := reg.Snapshot()
	if got, want := s.Counters[MetricConfigsDone], uint64(counts[obs.EventConfigDone]); got != want {
		t.Errorf("%s = %d, journal has %d config_done events", MetricConfigsDone, got, want)
	}
	if got := s.Gauges[MetricConfigsTotal]; got != int64(len(Configs(opt))) {
		t.Errorf("%s = %d, want %d", MetricConfigsTotal, got, len(Configs(opt)))
	}
	h := s.Histograms[MetricConfigSeconds]
	if int(h.Count) != counts[obs.EventConfigDone] {
		t.Errorf("%s observed %d durations, journal has %d completions", MetricConfigSeconds, h.Count, counts[obs.EventConfigDone])
	}
}
