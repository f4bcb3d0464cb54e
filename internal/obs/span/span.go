// Package span provides lightweight execution tracing for sweeps and
// service jobs: a Tracer hands out Spans forming a tree (run → sweep →
// config → attempt → simulate in the CLI tools; job → evaluate →
// store-{hit,miss} and job → config → attempt → simulate in the
// service), each carrying monotonic start/end timestamps and string
// attributes. Finished traces export as Chrome
// trace_event JSON (see export.go) loadable in Perfetto or
// chrome://tracing.
//
// Like the metrics registry in the parent obs package, the zero value
// of the pointer types is a working no-op: a nil *Tracer hands out nil
// *Spans, and every method on a nil receiver does nothing. Call sites
// therefore never guard tracing with conditionals — they trace
// unconditionally and pay sub-nanosecond cost when tracing is off.
package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings so
// traces serialize without reflection; format numbers with strconv at
// the call site.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Data is the immutable record of one finished span, as returned by
// Tracer.Snapshot. Times are nanoseconds relative to the tracer's
// monotonic epoch (its creation instant), so spans from one tracer are
// directly comparable and wall-clock adjustments cannot reorder them.
type Data struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // 0 = root span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Duration reports the span's length.
func (d Data) Duration() time.Duration { return time.Duration(d.EndNS - d.StartNS) }

// Attr returns the value of the named attribute, or "" if absent.
func (d Data) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Tracer collects finished spans. It is safe for concurrent use; a nil
// *Tracer is a valid no-op tracer (Start returns nil, Snapshot returns
// nothing, exports write an empty trace).
type Tracer struct {
	epoch  time.Time // monotonic reference point for all span times
	nextID atomic.Uint64

	mu   sync.Mutex
	done []Data
}

// NewTracer returns an empty tracer whose time epoch is "now".
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// now is the nanoseconds elapsed since the tracer's epoch, measured on
// the monotonic clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Start opens a new span under parent (nil parent = root span). On a
// nil tracer it returns nil, which every Span method accepts.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.nextID.Add(1), name: name, start: t.now()}
	if parent != nil {
		s.parent = parent.id
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// record files a finished span.
func (t *Tracer) record(d Data) {
	t.mu.Lock()
	t.done = append(t.done, d)
	t.mu.Unlock()
}

// Snapshot returns every finished span, sorted by start time (ties by
// id, which is allocation order). Open spans are not included; End
// them first.
func (t *Tracer) Snapshot() []Data {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Data, len(t.done))
	copy(out, t.done)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Span is one open interval in the trace tree. A nil *Span is valid:
// every method is a no-op and Child returns nil, so a disabled tracer
// propagates through an entire call tree without checks.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  int64

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// ID reports the span's tracer-unique id (0 on a nil span). Root spans
// have a nonzero ID and a zero Parent in their Data record.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Annotate attaches a key/value attribute. Calling it after End is
// allowed but has no effect on the recorded span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{key, value})
	}
	s.mu.Unlock()
}

// Child opens a sub-span. On a nil receiver it returns nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(s, name, attrs...)
}

// End closes the span and files it with the tracer. End is idempotent;
// only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	d := Data{ID: s.id, Parent: s.parent, Name: s.name, StartNS: s.start, EndNS: s.t.now(), Attrs: s.attrs}
	s.mu.Unlock()
	if d.EndNS < d.StartNS { // paranoia: monotonic time cannot go back
		d.EndNS = d.StartNS
	}
	s.t.record(d)
}
