package span

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"testing"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "root", Attr{"k", "v"})
	if s != nil {
		t.Fatalf("nil tracer Start = %v, want nil", s)
	}
	// Every method on a nil span must be callable.
	s.Annotate("a", "b")
	c := s.Child("child")
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	c.End()
	s.End()
	if s.ID() != 0 {
		t.Fatalf("nil span ID = %d, want 0", s.ID())
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", got)
	}
	if tr.Len() != 0 {
		t.Fatalf("nil tracer Len = %d, want 0", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("nil tracer Export: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer Export produced invalid JSON: %v", err)
	}
}

func TestSpanTreeSnapshot(t *testing.T) {
	tr := NewTracer()
	run := tr.Start(nil, "run", Attr{"tool", "test"})
	sweep := run.Child("sweep", Attr{"workload", "gcc1"})
	cfg := sweep.Child("config", Attr{"label", "4:64"})
	att := cfg.Child("attempt", Attr{"attempt", "1"})
	att.Annotate("outcome", "ok")
	att.End()
	cfg.End()
	sweep.End()
	run.End()

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("Snapshot returned %d spans, want 4", len(spans))
	}
	byName := map[string]Data{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["run"].Parent != 0 {
		t.Errorf("run parent = %d, want 0", byName["run"].Parent)
	}
	if byName["sweep"].Parent != byName["run"].ID {
		t.Errorf("sweep parent = %d, want run id %d", byName["sweep"].Parent, byName["run"].ID)
	}
	if byName["attempt"].Parent != byName["config"].ID {
		t.Errorf("attempt parent = %d, want config id %d", byName["attempt"].Parent, byName["config"].ID)
	}
	if got := byName["attempt"].Attr("outcome"); got != "ok" {
		t.Errorf("attempt outcome attr = %q, want ok", got)
	}
	// Children must be time-contained in their parents.
	for _, pair := range [][2]string{{"run", "sweep"}, {"sweep", "config"}, {"config", "attempt"}} {
		p, c := byName[pair[0]], byName[pair[1]]
		if c.StartNS < p.StartNS || c.EndNS > p.EndNS {
			t.Errorf("%s [%d,%d] not contained in %s [%d,%d]",
				pair[1], c.StartNS, c.EndNS, pair[0], p.StartNS, p.EndNS)
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(nil, "once")
	s.End()
	s.End()
	s.Annotate("late", "ignored")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after double End, want 1", tr.Len())
	}
	if got := tr.Snapshot()[0].Attr("late"); got != "" {
		t.Errorf("post-End Annotate recorded attr %q", got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(nil, "root")
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Child("worker", Attr{"i", strconv.Itoa(i)})
			s.Annotate("done", "true")
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := tr.Len(); got != n+1 {
		t.Fatalf("Len = %d, want %d", got, n+1)
	}
}

// decodeTrace parses an exported document and indexes events by span_id.
func decodeTrace(t *testing.T, b []byte) (events []map[string]any, byID map[string]map[string]any) {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	byID = map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			continue
		}
		events = append(events, ev)
		args, _ := ev["args"].(map[string]any)
		if args == nil {
			t.Fatalf("X event %v lacks args", ev)
		}
		id, _ := args["span_id"].(string)
		if id == "" {
			t.Fatalf("X event %v lacks span_id", ev)
		}
		byID[id] = ev
	}
	return events, byID
}

func TestExportChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	run := tr.Start(nil, "run")
	cfg := run.Child("config", Attr{"label", "2:128"})
	a1 := cfg.Child("attempt", Attr{"attempt", "1"})
	a1.End()
	a2 := cfg.Child("attempt", Attr{"attempt", "2"})
	a2.End()
	cfg.End()
	run.End()

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	events, byID := decodeTrace(t, buf.Bytes())
	if len(events) != 4 {
		t.Fatalf("exported %d X events, want 4", len(events))
	}
	for _, ev := range events {
		for _, field := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("event %v missing %q", ev, field)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("ph = %v, want X", ev["ph"])
		}
	}
	// Attempts must sit on their config's lane (Perfetto nests by time
	// containment on one tid), and siblings must not nest in each other.
	cfgEv := byID[strconv.FormatUint(cfg.ID(), 10)]
	for _, s := range []*Span{a1, a2} {
		ev := byID[strconv.FormatUint(s.ID(), 10)]
		if ev["tid"] != cfgEv["tid"] {
			t.Errorf("attempt tid %v != config tid %v", ev["tid"], cfgEv["tid"])
		}
		args := ev["args"].(map[string]any)
		if got := args["parent_id"]; got != strconv.FormatUint(cfg.ID(), 10) {
			t.Errorf("attempt parent_id = %v, want config id", got)
		}
	}
}

func TestExportOverlappingSiblingsGetDistinctLanes(t *testing.T) {
	// Hand-build overlapping sibling spans (concurrent workers); they
	// must not share a lane, while each child still follows its parent.
	spans := []Data{
		{ID: 1, Name: "run", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "w1", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "w2", StartNS: 20, EndNS: 80},
		{ID: 4, Parent: 2, Name: "w1.c", StartNS: 30, EndNS: 50},
		{ID: 5, Parent: 3, Name: "w2.c", StartNS: 40, EndNS: 70},
	}
	lanes := assignLanes(spans)
	if lanes[1] == lanes[2] {
		t.Errorf("overlapping siblings share lane %d", lanes[1])
	}
	if lanes[3] != lanes[1] {
		t.Errorf("w1.c lane %d, want parent lane %d", lanes[3], lanes[1])
	}
	if lanes[4] != lanes[2] {
		t.Errorf("w2.c lane %d, want parent lane %d", lanes[4], lanes[2])
	}
}

func TestSubtreeExport(t *testing.T) {
	tr := NewTracer()
	jobA := tr.Start(nil, "job", Attr{"id", "a"})
	evA := jobA.Child("evaluate")
	evA.Child("store-miss").End()
	evA.End()
	jobA.End()
	jobB := tr.Start(nil, "job", Attr{"id", "b"})
	jobB.Child("evaluate").End()
	jobB.End()

	sub := Subtree(tr.Snapshot(), jobA.ID())
	if len(sub) != 3 {
		t.Fatalf("Subtree returned %d spans, want 3", len(sub))
	}
	for _, d := range sub {
		if d.Name == "job" && d.Attr("id") != "a" {
			t.Errorf("subtree leaked job %q", d.Attr("id"))
		}
	}
	var buf bytes.Buffer
	if err := tr.ExportSubtree(&buf, jobA.ID()); err != nil {
		t.Fatalf("ExportSubtree: %v", err)
	}
	events, _ := decodeTrace(t, buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("subtree export has %d X events, want 3", len(events))
	}
	if got := Subtree(tr.Snapshot(), 9999); got != nil {
		t.Errorf("Subtree(unknown) = %v, want nil", got)
	}
}

func TestWriteFile(t *testing.T) {
	tr := NewTracer()
	tr.Start(nil, "run").End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace back: %v", err)
	}
	events, _ := decodeTrace(t, b)
	if len(events) != 1 {
		t.Fatalf("trace file has %d X events, want 1", len(events))
	}
}

// TestTracerDropDiscardsTree: Drop removes one root's tree, the spans it
// holds and those of it that end or start later, and leaves every other
// tree whole; dropping a child's id or an unknown id does nothing.
func TestTracerDropDiscardsTree(t *testing.T) {
	tr := NewTracer()
	keep := tr.Start(nil, "job")
	keepChild := keep.Child("evaluate")
	keepChild.End()
	drop := tr.Start(nil, "job")
	done := drop.Child("evaluate")
	done.End()
	late := drop.Child("replay")
	drop.End()
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d before Drop, want 3", got)
	}

	tr.Drop(keepChild.ID()) // not a root
	tr.Drop(1 << 40)        // unknown
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d after dropping a child's and an unknown id, want 3", got)
	}
	tr.Drop(drop.ID())
	late.End()
	drop.Child("after").End()
	keep.End()

	spans := tr.Snapshot()
	if len(spans) != 2 || tr.Len() != 2 {
		t.Fatalf("after Drop: Snapshot %+v, Len %d; want the kept job and its child", spans, tr.Len())
	}
	for _, d := range spans {
		if d.ID != keep.ID() && d.ID != keepChild.ID() {
			t.Errorf("span %+v of the dropped tree survived", d)
		}
	}
}

// TestTracerDropConcurrent drops trees while other goroutines end spans
// of them and of trees that are kept, for the race detector: every kept
// span must be held, and no dropped one.
func TestTracerDropConcurrent(t *testing.T) {
	tr := NewTracer()
	const roots, children = 8, 200
	var wg sync.WaitGroup
	kept := make([]*Span, roots)
	for r := range kept {
		kept[r] = tr.Start(nil, "job")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < children; i++ {
				kept[r].Child("config").End()
			}
		}()
		dropped := tr.Start(nil, "job")
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < children; i++ {
				dropped.Child("config").End()
			}
		}()
		go func() {
			defer wg.Done()
			tr.Drop(dropped.ID())
		}()
	}
	wg.Wait()
	for _, s := range kept {
		s.End()
	}
	if got, want := tr.Len(), roots*(children+1); got != want || len(tr.Snapshot()) != want {
		t.Errorf("Len %d, Snapshot %d spans; want the %d of the kept trees", got, len(tr.Snapshot()), want)
	}
}
