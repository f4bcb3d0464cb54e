package service

// This file defines the content-addressed result store: completed
// evaluation points keyed by sweep.Key (workload + option fingerprint +
// configuration label), so any job that names the same evaluation —
// an identical resubmission, or an overlapping sweep with, say, the same
// L1 sizes under a different L2 list — reuses the stored point instead
// of re-simulating. Because the key covers every result-determining
// option field, a stored point is exactly the point a fresh evaluation
// would produce, and serving it preserves byte-identical sweep output.
//
// Store is the interface the Manager memoizes through; MemStore (here)
// is the in-memory implementation and DiskStore (diskstore.go) the
// crash-safe durable one.

import (
	"sync"

	"twolevel/internal/sweep"
)

// Store memoizes completed evaluation points by their sweep.Key. It
// extends sweep.PointStore, whose Get/Put contract it shares, so any
// Store also makes a sweep.RunContext resumable.
type Store interface {
	sweep.PointStore
	// Len reports the number of stored points.
	Len() int
	// Points returns every stored point for which keep reports true
	// (nil keep means all), in no particular order.
	Points(keep func(sweep.Point) bool) []sweep.Point
}

// MemStore is the in-memory result store. It is safe for concurrent
// use. The zero value is not usable; NewStore builds one.
type MemStore struct {
	mu sync.Mutex
	m  map[string]sweep.Point
	// order tracks insertion order for FIFO eviction under cap.
	order []string
	cap   int
}

// NewStore builds an in-memory result store holding at most cap points
// (cap <= 0 means unbounded). Eviction is FIFO by insertion:
// design-space queries tend to re-touch recent option sets, and FIFO
// keeps eviction O(1) without per-Get bookkeeping on the hot path.
func NewStore(cap int) *MemStore {
	return &MemStore{m: make(map[string]sweep.Point), cap: cap}
}

// Get returns the stored point for key, if any.
func (s *MemStore) Get(key string) (sweep.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[key]
	return p, ok
}

// Put stores a completed point under key. Re-putting an existing key
// overwrites the point without growing the store.
func (s *MemStore) Put(key string, p sweep.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[key]; !exists {
		s.order = append(s.order, key)
		for s.cap > 0 && len(s.order) > s.cap {
			delete(s.m, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.m[key] = p
}

// Len reports the number of stored points.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Points returns every stored point for which keep reports true (nil
// keep means all), in no particular order. The envelope endpoint layers
// sweep.Envelope over this.
func (s *MemStore) Points(keep func(sweep.Point) bool) []sweep.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sweep.Point, 0, len(s.m))
	for _, p := range s.m {
		if keep == nil || keep(p) {
			out = append(out, p)
		}
	}
	return out
}
