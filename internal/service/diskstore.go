package service

// This file implements DiskStore, the crash-safe durable result store:
// the same Store contract as MemStore, backed by internal/wal logs so a
// kill -9 and restart replays to the identical memoized state. The
// format and crash mechanics are wal's; the policy is this file's:
//
//   - The store directory holds numbered segments (seg-000001.jsonl,
//     ...), each a twolevel-store-segment/1 log of {"key", "point"}
//     records. Only the highest-numbered segment is active; lower ones
//     are sealed. Replay runs in ascending segment and line order, and
//     the last record for a key wins.
//   - Every Put is fsynced before it returns.
//   - Records failing their checksum or parse are dropped and counted
//     (Stats().CorruptDropped); the key is re-evaluated on next use. A
//     torn tail is truncated off the active segment. In a sealed
//     segment it counts as corrupt, and a torn header is an error.
//   - A failed append that left partial bytes is truncated back off in
//     place; if that repair fails the segment is retired.
//   - The active segment is sealed once it outgrows SegmentBytes. Once
//     CompactMinDead overwritten records accumulate, a background pass
//     rewrites the sealed segments into one snapshot.
//
// DiskStore keeps the full point map in memory — disk is durability,
// not capacity — so Get/Points serve at MemStore speed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"twolevel/internal/chaos"
	"twolevel/internal/sweep"
	"twolevel/internal/wal"
)

// segmentFormat identifies the segment-file schema version.
const segmentFormat = "twolevel-store-segment/1"

// Chaos-injection sites of the durable store. Tests install
// internal/chaos rules against these names to prove the recovery paths.
const (
	// ChaosSiteStoreAppend fires before a record append; an injected
	// error models a full disk or failed syscall.
	ChaosSiteStoreAppend = "store.append"
	// ChaosSiteStoreWrite wraps the segment writer; Short rules tear
	// records, Corrupt rules flip payload bytes the checksum must catch.
	ChaosSiteStoreWrite = "store.write"
	// ChaosSiteStoreRepair fires before the post-failure truncation
	// that cuts a torn append back off; an injected error models the
	// crash landing between the write and the repair.
	ChaosSiteStoreRepair = "store.repair"
	// ChaosSiteStoreSync fires before an fsync.
	ChaosSiteStoreSync = "store.sync"
	// ChaosSiteStoreCompact fires at the start of a compaction pass.
	ChaosSiteStoreCompact = "store.compact"
)

// compactPrefix names the temp files of a compaction rewrite.
const compactPrefix = "compact-"

// DiskStoreOptions tunes a DiskStore. The zero value selects the
// defaults noted on each field.
type DiskStoreOptions struct {
	// SegmentBytes seals the active segment once it grows past this
	// size (default 4MB).
	SegmentBytes int64
	// CompactMinDead is how many overwritten records may accumulate in
	// sealed segments before a background compaction pass reclaims them
	// (default 1024).
	CompactMinDead int
	// Chaos, when non-nil, fires at the ChaosSiteStore* sites so tests
	// can inject append failures, torn writes, and corrupted bytes. Nil
	// costs nothing.
	Chaos *chaos.Injector
}

func (o DiskStoreOptions) withDefaults() DiskStoreOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 1024
	}
	return o
}

// DiskStoreStats is a point-in-time snapshot of the store's disk state.
type DiskStoreStats struct {
	// Points is the number of live memoized points.
	Points int
	// Segments is the number of segment files (including the active
	// one).
	Segments int
	// Dead counts records superseded by a later Put and not yet
	// compacted away.
	Dead int
	// CorruptDropped counts records dropped at open time for checksum
	// or parse failures.
	CorruptDropped int
	// TornRepaired counts torn final records truncated off at open.
	TornRepaired int
	// Compactions counts completed background compaction passes.
	Compactions int
}

// segHeader is the first line of every segment.
type segHeader struct {
	Format  string `json:"format"`
	Segment int    `json:"segment"`
}

// recBody is the rec payload of a record.
type recBody struct {
	Key   string          `json:"key"`
	Point json.RawMessage `json:"point"`
}

// DiskStore is the durable result store. It is safe for concurrent
// use; OpenDiskStore builds one.
type DiskStore struct {
	dir string
	opt DiskStoreOptions
	inj *chaos.Injector

	mu       sync.Mutex
	m        map[string]sweep.Point
	seg      *os.File // active segment (nil once persistence has failed hard)
	segN     int
	segBytes int64
	dead     int
	stats    DiskStoreStats
	err      error // first persistence failure, sticky
	closed   bool

	compacting bool
	compactWG  sync.WaitGroup
}

// OpenDiskStore opens (creating if needed) a durable result store in
// dir, replaying every segment into memory. Corrupted records are
// dropped and counted; a torn final record is truncated off. The
// returned store is ready for Put traffic.
func OpenDiskStore(dir string, opt DiskStoreOptions) (*DiskStore, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store dir: %w", err)
	}
	wal.RemoveTemps(dir, compactPrefix)
	s := &DiskStore{
		dir: dir,
		opt: opt,
		inj: opt.Chaos,
		m:   make(map[string]sweep.Point),
	}
	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	s.stats.Segments = max(len(segs), 1)
	if len(segs) == 0 {
		if err := s.startSegment(1); err != nil {
			return nil, err
		}
		return s, nil
	}
	for _, n := range segs[:len(segs)-1] {
		if err := s.replaySealed(n); err != nil {
			return nil, err
		}
	}
	last := segs[len(segs)-1]
	f, res, err := wal.Open(s.segPath(last), segmentFormat, &segHeader{Format: segmentFormat, Segment: last}, s.replayRecord)
	if err != nil {
		return nil, fmt.Errorf("service: segment %d: %w", last, err)
	}
	s.stats.CorruptDropped += res.Corrupt
	if res.Torn >= 0 {
		s.stats.TornRepaired++
	}
	s.seg, s.segN, s.segBytes = f, last, res.Size
	return s, nil
}

func (s *DiskStore) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", n))
}

// listSegments returns the existing segment numbers in ascending order.
func (s *DiskStore) listSegments() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: store dir: %w", err)
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.jsonl", &n); err == nil && e.Name() == fmt.Sprintf("seg-%06d.jsonl", n) {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// replaySealed loads sealed segment n. No crash mid-append tears a
// sealed segment, so a torn tail there counts as corrupt and a torn
// header is an error.
func (s *DiskStore) replaySealed(n int) error {
	f, err := os.Open(s.segPath(n))
	if err != nil {
		return fmt.Errorf("service: opening segment: %w", err)
	}
	defer f.Close()
	res, err := wal.Scan(f, segmentFormat, &segHeader{}, s.replayRecord)
	switch {
	case err != nil:
		return fmt.Errorf("service: segment %d: %w", n, err)
	case res.Torn == 0:
		return fmt.Errorf("service: segment %d: torn header in sealed segment", n)
	case res.Torn > 0:
		res.Corrupt++
	}
	s.stats.CorruptDropped += res.Corrupt
	return nil
}

// replayRecord folds one replayed rec payload into the memory map.
func (s *DiskStore) replayRecord(body []byte) error {
	key, p, err := decodeRecord(body)
	if err != nil {
		return err
	}
	if _, exists := s.m[key]; exists {
		s.dead++
	}
	s.m[key] = p
	return nil
}

// decodeRecord unpacks one rec payload.
func decodeRecord(body []byte) (string, sweep.Point, error) {
	var rec recBody
	if err := json.Unmarshal(body, &rec); err != nil {
		return "", sweep.Point{}, err
	}
	if rec.Key == "" {
		return "", sweep.Point{}, fmt.Errorf("service: record missing key")
	}
	p, err := sweep.UnmarshalPointJSON(rec.Point)
	return rec.Key, p, err
}

// encodeRecord frames one (key, point) as a record line.
func encodeRecord(key string, p sweep.Point) ([]byte, error) {
	pj, err := sweep.MarshalPointJSON(p)
	if err != nil {
		return nil, err
	}
	return wal.Encode(recBody{Key: key, Point: pj})
}

// startSegment creates and activates segment n. Caller holds s.mu (or
// has exclusive access during open).
func (s *DiskStore) startSegment(n int) error {
	f, size, err := wal.Create(s.segPath(n), segHeader{Format: segmentFormat, Segment: n})
	if err != nil {
		return fmt.Errorf("service: creating segment: %w", err)
	}
	s.seg, s.segN, s.segBytes = f, n, size
	return nil
}

// Get returns the stored point for key, if any.
func (s *DiskStore) Get(key string) (sweep.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[key]
	return p, ok
}

// Len reports the number of stored points.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Points returns every stored point for which keep reports true (nil
// keep means all), in no particular order.
func (s *DiskStore) Points(keep func(sweep.Point) bool) []sweep.Point {
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

// Put stores a completed point under key and appends it durably. The
// in-memory map is updated even when the disk append fails (the store
// degrades to MemStore semantics and records the failure in Err), so a
// persistence fault never costs a finished evaluation.
func (s *DiskStore) Put(key string, p sweep.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[key]; exists {
		s.dead++
	}
	s.m[key] = p
	if s.seg == nil || s.closed {
		return
	}
	line, err := encodeRecord(key, p)
	if err != nil {
		s.fail(fmt.Errorf("service: encoding record: %w", err))
		return
	}
	if err := s.inj.Hit(ChaosSiteStoreAppend); err != nil {
		s.fail(fmt.Errorf("service: appending record: %w", err))
		return
	}
	w := s.inj.Writer(ChaosSiteStoreWrite, s.seg)
	n, err := w.Write(line)
	if err != nil {
		s.fail(fmt.Errorf("service: appending record: %w", err))
		if n > 0 {
			// A partial record reached the file; cut it back off so the
			// segment stays append-safe. If the repair itself fails (or
			// chaos says the crash landed first), the torn bytes are the
			// segment's final record for open-time recovery to truncate —
			// so the segment must be retired NOW: one more append would
			// glue onto the newline-less tail and corrupt a good record.
			if rerr := s.inj.Hit(ChaosSiteStoreRepair); rerr == nil {
				if terr := s.seg.Truncate(s.segBytes); terr == nil {
					s.err = nil // repaired: the segment is clean again
					return
				}
			}
			s.seg.Close() //nolint:errcheck // already failed; memory keeps serving
			s.seg = nil
		}
		return
	}
	s.segBytes += int64(n)
	if err := s.inj.Hit(ChaosSiteStoreSync); err != nil {
		s.fail(fmt.Errorf("service: fsync: %w", err))
	} else if err := s.seg.Sync(); err != nil {
		s.fail(fmt.Errorf("service: fsync: %w", err))
	}
	if s.segBytes >= s.opt.SegmentBytes {
		s.rotateLocked()
	}
	if s.dead >= s.opt.CompactMinDead && !s.compacting {
		s.compacting = true
		s.compactWG.Add(1)
		go s.compact()
	}
}

// fail records the first persistence failure. The store keeps serving
// (and accepting) points from memory.
func (s *DiskStore) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err reports the first persistence failure, if any. A non-nil value
// means some completed points may not survive a restart.
func (s *DiskStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats snapshots the disk-state counters.
func (s *DiskStore) Stats() DiskStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Points = len(s.m)
	st.Dead = s.dead
	return st
}

// Dir reports the store directory.
func (s *DiskStore) Dir() string { return s.dir }

// rotateLocked seals the active segment and starts the next one.
// Caller holds s.mu.
func (s *DiskStore) rotateLocked() {
	if err := s.seg.Sync(); err != nil {
		s.fail(fmt.Errorf("service: sealing segment: %w", err))
	}
	if err := s.seg.Close(); err != nil {
		s.fail(fmt.Errorf("service: sealing segment: %w", err))
	}
	if err := s.startSegment(s.segN + 1); err != nil {
		s.fail(err)
		s.seg = nil // persistence is over; memory keeps serving
		return
	}
	s.stats.Segments++
}

// Compact synchronously runs one compaction pass (the background
// trigger calls the same machinery). It rewrites every sealed segment
// into one snapshot segment via write-temp-then-rename, dropping dead
// records, and deletes the superseded segments.
func (s *DiskStore) Compact() error {
	s.mu.Lock()
	if s.compacting || s.closed || s.seg == nil {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	s.compactWG.Add(1)
	s.mu.Unlock()
	return s.compactOnce()
}

// compact is the background compaction goroutine body.
func (s *DiskStore) compact() {
	s.compactOnce() //nolint:errcheck // recorded in s.err
}

// compactOnce rewrites the sealed segments into one. On any failure the
// old segments are left in place (replay order makes the attempt
// invisible).
func (s *DiskStore) compactOnce() error {
	defer s.compactWG.Done()
	finish := func(err error) error {
		s.mu.Lock()
		s.compacting = false
		if err != nil {
			s.fail(err)
		} else {
			s.stats.Compactions++
		}
		s.mu.Unlock()
		return err
	}
	if err := s.inj.Hit(ChaosSiteStoreCompact); err != nil {
		return finish(fmt.Errorf("service: compaction: %w", err))
	}

	// Seal the active segment so every record to compact lives in an
	// immutable file, then snapshot the live map. Concurrent Puts land
	// in the new active segment, which replays after the snapshot.
	s.mu.Lock()
	if s.closed || s.seg == nil {
		s.mu.Unlock()
		return finish(nil)
	}
	s.rotateLocked()
	if s.seg == nil {
		s.mu.Unlock()
		return finish(fmt.Errorf("service: compaction: could not rotate"))
	}
	snap := make(map[string]sweep.Point, len(s.m))
	for k, v := range s.m {
		snap[k] = v
	}
	outN := s.segN - 1 // the snapshot replaces the highest sealed segment
	deadAtSnap := s.dead
	s.mu.Unlock()

	err := wal.Rewrite(s.segPath(outN), compactPrefix, segHeader{Format: segmentFormat, Segment: outN}, func(add func(any) error) error {
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pj, err := sweep.MarshalPointJSON(snap[k])
			if err == nil {
				err = add(recBody{Key: k, Point: pj})
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return finish(fmt.Errorf("service: compaction: %w", err))
	}
	for n := outN - 1; n >= 1; n-- {
		if err := os.Remove(s.segPath(n)); err != nil && !os.IsNotExist(err) {
			return finish(fmt.Errorf("service: compaction: removing segment %d: %w", n, err))
		}
	}

	s.mu.Lock()
	s.dead -= deadAtSnap
	s.stats.Segments = 2 // the snapshot plus the active segment
	s.mu.Unlock()
	return finish(nil)
}

// Close seals the store: the active segment is fsynced and closed, and
// any in-flight compaction finishes first. Get/Len/Points keep
// serving from memory; further Puts update only memory.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.err
	}
	s.closed = true
	s.mu.Unlock()
	s.compactWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg != nil {
		if err := s.seg.Sync(); err != nil {
			s.fail(fmt.Errorf("service: closing store: %w", err))
		}
		if err := s.seg.Close(); err != nil {
			s.fail(fmt.Errorf("service: closing store: %w", err))
		}
		s.seg = nil
	}
	return s.err
}
