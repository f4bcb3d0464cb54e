package obs

// This file implements the structured run-event journal: an EventLog
// appends one JSON object per line for every lifecycle event of a run
// (sweep_start, config_start/done/error/retry/skipped, sweep_done,
// run_manifest), stamped with a sequence number and a
// monotonic timestamp, so a long run can be replayed, diffed, and
// reconciled against the metrics registry's totals.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one journal line. The zero value of every optional field is
// omitted, so each event type serializes only the fields it uses and the
// journal stays diffable.
type Event struct {
	// Seq is the 1-based emission order within this log.
	Seq uint64 `json:"seq"`
	// TNS is the monotonic time of emission in nanoseconds since the
	// log was created (never goes backwards, unlike wall time).
	TNS int64 `json:"t_ns"`
	// Type tags the event, e.g. "sweep_start" or "config_done".
	Type string `json:"type"`

	Workload    string `json:"workload,omitempty"`
	Label       string `json:"label,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Job identifies the owning service job on job/task lifecycle events
	// (internal/service); empty for plain sweep events.
	Job string `json:"job,omitempty"`
	// Attempt is the 1-based retry attempt on config_retry events.
	Attempt int    `json:"attempt,omitempty"`
	Err     string `json:"err,omitempty"`
	// Done/Total/Skipped/Failed carry run progress totals.
	Done    int `json:"done,omitempty"`
	Total   int `json:"total,omitempty"`
	Skipped int `json:"skipped,omitempty"`
	Failed  int `json:"failed,omitempty"`
	// DurNS is the duration of the completed operation in nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Area and TPI carry a completed configuration's result so a journal
	// alone can rebuild the run's outcome.
	Area float64 `json:"area_rbe,omitempty"`
	TPI  float64 `json:"tpi_ns,omitempty"`
}

// Event type tags emitted by the sweep stack.
const (
	EventSweepStart    = "sweep_start"
	EventConfigStart   = "config_start"
	EventConfigDone    = "config_done"
	EventConfigError   = "config_error"
	EventConfigRetry   = "config_retry"
	EventConfigSkipped = "config_skipped"
	EventSweepDone     = "sweep_done"
	EventRunManifest   = "run_manifest"
)

// EventLog appends events to a writer as JSONL and fans them out to any
// live subscribers (see Subscribe). It is safe for concurrent use; a nil
// *EventLog is a valid no-op sink, so library code emits
// unconditionally.
type EventLog struct {
	mu    sync.Mutex
	w     io.Writer // nil for a broadcast-only bus (NewEventBus)
	f     *os.File  // non-nil when file-backed; synced on Close
	start time.Time
	seq   uint64
	err   error // first write failure; later emits are dropped
	subs  []*EventSub
}

// NewEventLog starts a journal on w. The monotonic clock starts now.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w, start: time.Now()}
}

// NewEventBus starts a broadcast-only journal: events are stamped and
// fanned out to subscribers but never serialized or written anywhere.
// The job service uses one when no event sink is configured, so live
// SSE progress streams work regardless of journaling.
func NewEventBus() *EventLog {
	return &EventLog{start: time.Now()}
}

// OpenEventLogFile opens (or creates, or appends to) a JSONL journal at
// path.
func OpenEventLogFile(path string) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening event log: %w", err)
	}
	l := NewEventLog(f)
	l.f = f
	return l, nil
}

// Emit stamps e with the next sequence number and the monotonic
// timestamp, appends it, and delivers a copy to every subscriber
// (non-blocking: a subscriber whose buffer is full drops the event and
// counts it, so a slow SSE client can never stall the instrumented
// run). No-op on a nil log. Write failures are remembered (see Err) and
// silence the journal — but not the subscribers — rather than
// disrupting the run being observed.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil && len(l.subs) == 0 {
		return
	}
	l.seq++
	e.Seq = l.seq
	e.TNS = time.Since(l.start).Nanoseconds()
	if l.w != nil && l.err == nil {
		b, err := json.Marshal(e)
		if err != nil {
			l.err = err
		} else if _, err := l.w.Write(append(b, '\n')); err != nil {
			l.err = err
		}
	}
	for _, s := range l.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
		}
	}
}

// EventSub is one live subscription to an EventLog's stream. Events are
// delivered on C in emission order; when the subscriber's buffer is
// full, new events are dropped (and counted in Dropped) rather than
// blocking the emitter.
type EventSub struct {
	l       *EventLog
	ch      chan Event
	dropped atomic.Uint64
}

// Subscribe attaches a new subscriber with the given channel buffer
// (minimum 1). Events emitted after Subscribe returns are delivered on
// C until Close. On a nil log the subscription is valid but never
// delivers.
func (l *EventLog) Subscribe(buf int) *EventSub {
	if buf < 1 {
		buf = 1
	}
	s := &EventSub{l: l, ch: make(chan Event, buf)}
	if l == nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, s)
	return s
}

// C is the subscription's delivery channel. It is never closed; end the
// stream with Close and stop reading.
func (s *EventSub) C() <-chan Event { return s.ch }

// Dropped reports how many events were discarded because the buffer was
// full when they were emitted.
func (s *EventSub) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription; no further events are delivered.
// Safe to call more than once.
func (s *EventSub) Close() {
	if s.l == nil {
		return
	}
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	for i, sub := range s.l.subs {
		if sub == s {
			s.l.subs = append(s.l.subs[:i], s.l.subs[i+1:]...)
			break
		}
	}
}

// Err reports the first write or marshal failure (nil-safe).
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close syncs and closes a file-backed log (a no-op otherwise),
// returning the first error the log encountered.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Sync(); err != nil && l.err == nil {
			l.err = err
		}
		if err := l.f.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.f = nil
	}
	return l.err
}

// ReadEvents parses a JSONL event journal back into events, for replay
// and diffing. Blank lines are skipped; a malformed line is an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("obs: event line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	return out, nil
}
