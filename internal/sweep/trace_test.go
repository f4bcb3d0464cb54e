package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"twolevel/internal/core"
	"twolevel/internal/obs/span"
)

// spanIndex groups a snapshot by name and id for tree assertions.
type spanIndex struct {
	byID   map[uint64]span.Data
	byName map[string][]span.Data
}

func indexSpans(spans []span.Data) spanIndex {
	ix := spanIndex{byID: map[uint64]span.Data{}, byName: map[string][]span.Data{}}
	for _, d := range spans {
		ix.byID[d.ID] = d
		ix.byName[d.Name] = append(ix.byName[d.Name], d)
	}
	return ix
}

// TestRunContextSpanTree is the acceptance-criterion test for sweep
// tracing: the exported trace validates as Chrome trace_event JSON,
// attempt spans nest under config spans, and retries appear as sibling
// attempts of one config.
func TestRunContextSpanTree(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.Retries = 1
	// Panic exactly once, on the first attempt of one configuration, so
	// the trace contains one config with two sibling attempts.
	victim := core.Config{}
	panicked := false
	withEvalHook(t, func(cfg core.Config) {
		if !panicked && cfg.TwoLevel() {
			victim = cfg
			panicked = true
			panic("injected")
		}
	})

	tr := span.NewTracer()
	root := tr.Start(nil, "run")
	opt.Trace = tr
	opt.TraceParent = root
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	root.End()

	ix := indexSpans(tr.Snapshot())
	sweeps := ix.byName["sweep"]
	if len(sweeps) != 1 {
		t.Fatalf("trace has %d sweep spans, want 1", len(sweeps))
	}
	if sweeps[0].Parent != root.ID() {
		t.Errorf("sweep parent = %d, want run span %d", sweeps[0].Parent, root.ID())
	}
	if got := sweeps[0].Attr("workload"); got != w.Name {
		t.Errorf("sweep workload attr = %q, want %q", got, w.Name)
	}

	total := len(Configs(opt))
	configs := ix.byName["config"]
	if len(configs) != total {
		t.Errorf("trace has %d config spans, want %d", len(configs), total)
	}
	for _, c := range configs {
		if c.Parent != sweeps[0].ID {
			t.Errorf("config %q parent = %d, want sweep %d", c.Attr("label"), c.Parent, sweeps[0].ID)
		}
	}

	// Every attempt must nest under a config span; the injected panic
	// yields exactly one config with two sibling attempts, the first
	// carrying the retry cause.
	attemptsPer := map[uint64]int{}
	for _, a := range ix.byName["attempt"] {
		p, ok := ix.byID[a.Parent]
		if !ok || p.Name != "config" {
			t.Fatalf("attempt span parent %d is not a config span", a.Parent)
		}
		if a.StartNS < p.StartNS || a.EndNS > p.EndNS {
			t.Errorf("attempt [%d,%d] escapes config [%d,%d]", a.StartNS, a.EndNS, p.StartNS, p.EndNS)
		}
		attemptsPer[a.Parent]++
	}
	retried := 0
	for id, n := range attemptsPer {
		switch n {
		case 1:
		case 2:
			retried++
			if got := ix.byID[id].Attr("label"); got != Label(victim) {
				t.Errorf("retried config label = %q, want %q", got, Label(victim))
			}
		default:
			t.Errorf("config span %d has %d attempts, want 1 or 2", id, n)
		}
	}
	if retried != 1 {
		t.Errorf("%d configs retried, want exactly 1", retried)
	}
	// The panicking attempt still records its simulate child.
	for _, s := range ix.byName["simulate"] {
		if p, ok := ix.byID[s.Parent]; !ok || p.Name != "attempt" {
			t.Errorf("simulate parent is %q, want attempt", p.Name)
		}
	}
	if len(ix.byName["simulate"]) != total+1 {
		t.Errorf("trace has %d simulate spans, want %d (one per attempt)", len(ix.byName["simulate"]), total+1)
	}
	// The trace stage runs once, under the sweep, before any config: one
	// generate span that carries the trace length, and one l1-record
	// span whose children are the passes, one per L1 group.
	groups := map[int64]bool{}
	for _, cfg := range Configs(opt) {
		groups[cfg.L1I.Size] = true
	}
	checkTraceStage(t, ix, sweeps[0].ID, opt.Refs, len(groups))

	// The exported document must be schema-valid Chrome trace JSON with
	// machine-checkable nesting via span_id/parent_id args.
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   *float64          `json:"ts"`
			Dur  *float64          `json:"dur"`
			PID  *int              `json:"pid"`
			TID  *int              `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	xEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		xEvents++
		if ev.Ph != "X" || ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil || ev.Name == "" {
			t.Fatalf("malformed trace event: %+v", ev)
		}
		if ev.Args["span_id"] == "" {
			t.Fatalf("trace event %q lacks span_id arg", ev.Name)
		}
	}
	if xEvents != tr.Len() {
		t.Errorf("exported %d X events for %d spans", xEvents, tr.Len())
	}
}

// TestRunContextResumedConfigsAppearInTrace checks that configurations
// TestRunContextExclusiveL1PassSpans checks that an exclusive sweep
// records one L1 pass per L1 size. The grid has no single-level
// configurations, so every pass serves exclusive hierarchies alone.
func TestRunContextExclusiveL1PassSpans(t *testing.T) {
	w := testWorkload(t)
	opt := l1OnceOpt()
	opt.Policy = core.Exclusive
	opt.L2Sizes = []int64{16 << 10, 64 << 10}
	tr := span.NewTracer()
	opt.Trace = tr
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	ix := indexSpans(tr.Snapshot())
	if len(ix.byName["sweep"]) != 1 {
		t.Fatalf("trace has %d sweep spans, want 1", len(ix.byName["sweep"]))
	}
	checkTraceStage(t, ix, ix.byName["sweep"][0].ID, opt.Refs, len(opt.L1Sizes))
}

// checkTraceStage checks the spans of a sweep's trace stage: one
// generate and one l1-record span under the sweep, ended before the
// first config span starts, the generate span carrying the trace length,
// one l1-pass span per L1 group under l1-record, and one replay span
// per L1 group under the sweep, carrying its L1 size, its count of L2s
// and the miss events it walked.
func checkTraceStage(t *testing.T, ix spanIndex, sweep uint64, refs uint64, groups int) {
	t.Helper()
	gen, rec := ix.byName["generate"], ix.byName["l1-record"]
	if len(gen) != 1 || len(rec) != 1 {
		t.Fatalf("trace has %d generate and %d l1-record spans, want 1 each", len(gen), len(rec))
	}
	for _, s := range []span.Data{gen[0], rec[0]} {
		if s.Parent != sweep {
			t.Errorf("%s parent = %d, want sweep %d", s.Name, s.Parent, sweep)
		}
		for _, c := range ix.byName["config"] {
			if c.StartNS < s.EndNS {
				t.Errorf("config %q starts before %s ends", c.Attr("label"), s.Name)
				break
			}
		}
	}
	if got, want := gen[0].Attr("refs"), strconv.FormatUint(refs, 10); got != want {
		t.Errorf("generate refs attr = %q, want %q", got, want)
	}
	passes := ix.byName["l1-pass"]
	if len(passes) != groups {
		t.Errorf("trace has %d l1-pass spans, want %d (one per L1 group)", len(passes), groups)
	}
	for _, s := range passes {
		if s.Parent != rec[0].ID {
			t.Errorf("l1-pass %q parent = %d, want l1-record %d", s.Attr("l1"), s.Parent, rec[0].ID)
		}
	}
	replays := ix.byName["replay"]
	if len(replays) != groups {
		t.Errorf("trace has %d replay spans, want %d (one per L1 group)", len(replays), groups)
	}
	for _, s := range replays {
		if s.Parent != sweep {
			t.Errorf("replay %q parent = %d, want sweep %d", s.Attr("l1"), s.Parent, sweep)
		}
		if n, err := strconv.ParseUint(s.Attr("events"), 10, 64); err != nil || n == 0 || s.Attr("l1") == "" || s.Attr("l2s") == "" {
			t.Errorf("replay span attrs %+v, want its L1 size, its L2 count and its events", s.Attrs)
		}
	}
	for _, s := range ix.byName["simulate"] {
		if got, want := s.Attr("refs"), strconv.FormatUint(refs, 10); got != want {
			t.Errorf("simulate refs attr = %q, want %q", got, want)
			break
		}
	}
}

// TestRunContextResumedConfigsTraced: configurations served from
// Options.Store still contribute (instant) config spans, and only the
// evaluated ones store their points.
func TestRunContextResumedConfigsTraced(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	points, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	store := mapStore{}
	for _, p := range points[:2] {
		store.Put(Key(w.Name, p.Config, opt), p)
	}
	tr := span.NewTracer()
	opt.Trace = tr
	opt.Store = store
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
	ix := indexSpans(tr.Snapshot())
	cached := 0
	for _, c := range ix.byName["config"] {
		if c.Attr("outcome") == "cached" {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("%d cached config spans, want 2", cached)
	}
	if n, want := len(ix.byName["store-put"]), len(points)-2; n != want {
		t.Errorf("%d store-put spans, want %d", n, want)
	}
}

// TestNilTracerProducesNoSpans pins the nil-safety contract end to end.
func TestNilTracerProducesNoSpans(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.L1Sizes = opt.L1Sizes[:1]
	opt.Trace = nil
	opt.TraceParent = nil
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
}
