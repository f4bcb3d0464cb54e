// Package obs is the observability layer of the simulator and sweep
// stack: a lightweight metrics registry (counters, gauges, fixed-bucket
// histograms), a structured JSONL run-event journal, and HTTP endpoints
// serving live snapshots plus pprof.
//
// Everything is nil-safe by contract: a nil *Registry hands out nil
// instruments, and every instrument method on a nil receiver is a no-op.
// Library code therefore instruments unconditionally and uninstrumented
// users pay only a nil-check on the hot path (BenchmarkCacheAccessNilRegistry
// and BenchmarkCacheAccessLiveRegistry in the root package measure it).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrement). No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= Bounds[i]; one implicit overflow bucket counts the
// rest. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean reports Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// ExpBuckets builds n exponential bucket bounds: start, start*factor,
// start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// DurationBuckets is a general-purpose latency range in seconds: 1ms to
// ~9 hours, doubling.
func DurationBuckets() []float64 { return ExpBuckets(0.001, 2, 25) }

// Registry interns named instruments. The zero value is not usable; a
// nil *Registry is, and hands out nil (no-op) instruments, so library
// code can thread a registry unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	samplers []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter interns the named counter (nil on a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge interns the named gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns the named histogram (nil on a nil registry). The
// bounds apply on first registration; later calls reuse the existing
// instrument regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DurationBuckets()
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
		}
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram. Counts has one
// more entry than Bounds; the extra last entry is the overflow bucket.
// Buckets carries the same counts with each bucket's inclusive upper
// bound made explicit, so external tooling can plot a histogram without
// hardcoding the boundary scheme (Bounds/Counts remain for
// back-compatibility with pre-existing consumers of the snapshot JSON).
type HistogramSnapshot struct {
	Bounds  []float64         `json:"bounds"`
	Counts  []uint64          `json:"counts"`
	Buckets []HistogramBucket `json:"buckets"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
}

// HistogramBucket is one histogram bucket with its inclusive upper
// bound. The overflow bucket (everything above the last bound) has a
// nil Le, serialized as JSON null.
type HistogramBucket struct {
	Le    *float64 `json:"le"`
	Count uint64   `json:"count"`
}

// bucketize derives the explicit-bound Buckets form from Bounds/Counts.
func (h *HistogramSnapshot) bucketize() {
	h.Buckets = make([]HistogramBucket, len(h.Counts))
	for i, c := range h.Counts {
		b := HistogramBucket{Count: c}
		if i < len(h.Bounds) {
			le := h.Bounds[i]
			b.Le = &le
		}
		h.Buckets[i] = b
	}
}

// Mean reports Sum/Count, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the bucket holding the target rank, assuming observations are
// uniformly spread across each bucket — the estimator Prometheus's
// histogram_quantile uses. The first bucket interpolates from 0 (its
// observations have no recorded lower edge); the overflow bucket
// reports the largest finite bound, the only honest monotone answer
// there. Out-of-range q clamps to [0, 1]; an empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	if target < 1 {
		target = 1 // the estimate is never below the first observation's bucket
	}
	var cum uint64
	for i, c := range h.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < target || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.Bounds[i-1]
		}
		upper := h.Bounds[i]
		if upper <= lower {
			return upper
		}
		return lower + (upper-lower)*(target-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of every registered instrument,
// suitable for JSON serving and CI trend files.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// AddSampler registers a hook run at the start of every Snapshot,
// before the instruments are read — the seam for pull-style telemetry
// (runtime stats, process gauges) that is only worth the cost when
// someone is actually scraping. Samplers run outside the registration
// lock, so they may freely touch the registry's instruments; they must
// tolerate concurrent invocation (Snapshot can race with itself).
// No-op on a nil registry.
func (r *Registry) AddSampler(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, f)
}

// Snapshot atomically reads every instrument. Individual instruments are
// read atomically; the set is collected under the registration lock, so
// an instrument registered concurrently either appears fully or not at
// all. A nil registry yields an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	samplers := r.samplers
	r.mu.Unlock()
	for _, f := range samplers {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		hs.bucketize()
		s.Histograms[name] = hs
	}
	return s
}

// WriteSnapshot serializes the registry's snapshot as indented JSON.
func WriteSnapshot(w io.Writer, r *Registry) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteSnapshotFile dumps the registry's snapshot to path (the -metrics
// flag of the cmd tools).
func WriteSnapshotFile(path string, r *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
