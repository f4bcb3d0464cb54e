package service

// These tests prove the durable store's crash contract with real faults
// injected via internal/chaos: torn final records, corrupted-checksum
// records, failed appends — then reopen and assert the replayed state,
// up to the full kill-9 round trip (byte-identical result documents,
// nothing durably stored is re-evaluated).

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// diskTestData evaluates a tiny real sweep and returns its points with
// their store keys, so store tests persist the same values the service
// would.
func diskTestData(t testing.TB) (keys []string, points []sweep.Point) {
	t.Helper()
	w, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	opt := sweep.Options{
		Refs:    20000,
		L1Sizes: []int64{1 << 10, 2 << 10},
		L2Sizes: []int64{0, 8 << 10},
	}
	points = sweep.Run(w, opt)
	if len(points) == 0 {
		t.Fatal("test sweep produced no points")
	}
	for _, p := range points {
		keys = append(keys, sweep.Key(w.Name, p.Config, opt))
	}
	return keys, points
}

// fillStore puts every (key, point) pair.
func fillStore(s Store, keys []string, points []sweep.Point) {
	for i, k := range keys {
		s.Put(k, points[i])
	}
}

// TestDiskStoreRoundTrip: points put into a store are served after a
// clean close and reopen, identically.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)

	s, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(points) {
		t.Fatalf("reopened store has %d points, want %d", r.Len(), len(points))
	}
	for i, k := range keys {
		got, ok := r.Get(k)
		if !ok {
			t.Fatalf("key %q missing after reopen", k)
		}
		a, _ := sweep.MarshalPointJSON(got)
		b, _ := sweep.MarshalPointJSON(points[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("point for %q changed across reopen:\n  got  %s\n  want %s", k, a, b)
		}
	}
	st := r.Stats()
	if st.CorruptDropped != 0 || st.TornRepaired != 0 {
		t.Fatalf("clean reopen reported repairs: %+v", st)
	}
}

// TestDiskStoreNoCleanClose: a store that is never closed (the kill -9
// case with default fsync-every-record) still replays every point.
func TestDiskStoreNoCleanClose(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)

	s, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	// No Close: the process just dies.

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(points) {
		t.Fatalf("reopened store has %d points, want %d", r.Len(), len(points))
	}
}

// TestDiskStoreRotationAndCompaction: a tiny segment budget forces
// rotation; overwrites accumulate dead records; compaction collapses the
// sealed segments into one snapshot that still replays completely.
func TestDiskStoreRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)

	s, err := OpenDiskStore(dir, DiskStoreOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Three rounds of the same keys: two full rounds of dead records.
	for range 3 {
		fillStore(s, keys, points)
	}
	segs, err := s.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	if d := s.Stats().Dead; d != 2*len(keys) {
		t.Fatalf("dead records = %d, want %d", d, 2*len(keys))
	}

	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after, err := s.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("segments after compaction = %v, want snapshot + active", after)
	}
	st := s.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if st.Dead != 0 {
		t.Fatalf("dead after compaction = %d, want 0", st.Dead)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(points) {
		t.Fatalf("post-compaction reopen has %d points, want %d", r.Len(), len(points))
	}
	for _, k := range keys {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("key %q missing after compaction + reopen", k)
		}
	}
}

// TestDiskStoreTornFinalRecord: every possible torn length of the final
// record (the crash-mid-append signature) reopens to all-but-one points,
// repairs the file in place, and leaves the segment append-safe.
func TestDiskStoreTornFinalRecord(t *testing.T) {
	keys, points := diskTestData(t)

	// Build one clean store to learn the segment layout.
	master := t.TempDir()
	s, err := OpenDiskStore(master, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := s.segPath(1)
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := bytes.LastIndexByte(bytes.TrimSuffix(whole, []byte("\n")), '\n') + 1

	for cut := lastStart + 1; cut < len(whole); cut++ {
		dir := t.TempDir()
		torn := filepath.Join(dir, filepath.Base(segPath))
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDiskStore(dir, DiskStoreOptions{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if r.Len() != len(points)-1 {
			t.Fatalf("cut at %d: %d points, want %d", cut, r.Len(), len(points)-1)
		}
		if st := r.Stats(); st.TornRepaired != 1 {
			t.Fatalf("cut at %d: torn repaired = %d, want 1", cut, st.TornRepaired)
		}
		if _, ok := r.Get(keys[len(keys)-1]); ok {
			t.Fatalf("cut at %d: torn final record served anyway", cut)
		}
		// The repaired segment accepts the missing point again.
		r.Put(keys[len(keys)-1], points[len(points)-1])
		if err := r.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		rr, err := OpenDiskStore(dir, DiskStoreOptions{})
		if err != nil {
			t.Fatalf("cut at %d: reopen after repair: %v", cut, err)
		}
		if rr.Len() != len(points) {
			t.Fatalf("cut at %d: %d points after re-put, want %d", cut, rr.Len(), len(points))
		}
		if st := rr.Stats(); st.TornRepaired != 0 || st.CorruptDropped != 0 {
			t.Fatalf("cut at %d: second reopen not clean: %+v", cut, st)
		}
		rr.Close()
	}
}

// TestDiskStoreTornSealedSegment: only the active segment can be torn
// by a crash mid-append, so a sealed segment is not repaired. Its torn
// tail is counted as a corrupt record and left on disk, and its torn
// header refuses the open.
func TestDiskStoreTornSealedSegment(t *testing.T) {
	keys, points := diskTestData(t)
	master := t.TempDir()
	s, err := OpenDiskStore(master, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(s.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	active := []byte(`{"format":"` + segmentFormat + `","segment":2}` + "\n")
	hdrLen := bytes.IndexByte(whole, '\n') + 1

	for _, c := range []struct {
		name   string
		sealed []byte
	}{{"torn tail", whole[:len(whole)-5]}, {"torn header", whole[:hdrLen/2]}} {
		dir := t.TempDir()
		sealed := filepath.Join(dir, "seg-000001.jsonl")
		if err := os.WriteFile(sealed, c.sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000002.jsonl"), active, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDiskStore(dir, DiskStoreOptions{})
		if c.name == "torn header" {
			if err == nil || !strings.Contains(err.Error(), "torn header in sealed segment") {
				t.Fatalf("%s: err = %v, want the sealed torn-header error", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := r.Stats()
		r.Close()
		if st.Points != len(points)-1 || st.CorruptDropped != 1 || st.TornRepaired != 0 {
			t.Fatalf("%s: %+v, want %d points, 1 corrupt, 0 repaired", c.name, st, len(points)-1)
		}
		if b, _ := os.ReadFile(sealed); !bytes.Equal(b, c.sealed) {
			t.Fatalf("%s: the sealed segment was rewritten", c.name)
		}
	}
}

// TestDiskStoreCorruptRecordDropped: a mid-file record whose payload
// byte was flipped on disk fails its checksum on replay and is dropped
// and counted; every other record survives.
func TestDiskStoreCorruptRecordDropped(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)

	s, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := s.segPath(1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second line's "rec" payload (first line is
	// the header), well away from any newline.
	lines := bytes.SplitAfter(raw, []byte("\n"))
	idx := len(lines[0]) + bytes.Index(lines[1], []byte(`"rec"`)) + 20
	raw[idx] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(points)-1 {
		t.Fatalf("reopen with one corrupt record: %d points, want %d", r.Len(), len(points)-1)
	}
	st := r.Stats()
	if st.CorruptDropped != 1 {
		t.Fatalf("corrupt dropped = %d, want 1", st.CorruptDropped)
	}
	if _, ok := r.Get(keys[0]); ok {
		t.Fatal("corrupted record was served anyway")
	}
	for _, k := range keys[1:] {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("undamaged key %q lost alongside the corrupt one", k)
		}
	}
}

// TestDiskStoreChaosAppendFailure: an injected append error leaves the
// store serving from memory (Put never loses a finished evaluation) and
// is reported by Err; later appends resume normally.
func TestDiskStoreChaosAppendFailure(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)

	in := chaos.New(7)
	in.Install(chaos.Rule{Site: ChaosSiteStoreAppend, Times: 1})
	s, err := OpenDiskStore(dir, DiskStoreOptions{Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if s.Len() != len(points) {
		t.Fatalf("memory lost points on append failure: %d, want %d", s.Len(), len(points))
	}
	if s.Err() == nil {
		t.Fatal("append failure not reported by Err")
	}
	if err := s.Close(); s.Err() == nil && err == nil {
		t.Fatal("close cleared the persistence failure")
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Exactly the record whose append was shot is gone.
	if r.Len() != len(points)-1 {
		t.Fatalf("reopened store has %d points, want %d", r.Len(), len(points)-1)
	}
	if _, ok := r.Get(keys[0]); ok {
		t.Fatal("failed append produced a durable record")
	}
}

// TestDiskStoreChaosShortWriteRepaired: a torn write (half the record
// reaches the file) is cut back off in-line, so the store stays clean
// and the segment append-safe without waiting for a reopen.
func TestDiskStoreChaosShortWriteRepaired(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)

	in := chaos.New(7)
	in.Install(chaos.Rule{Site: ChaosSiteStoreWrite, Short: true, Times: 1})
	s, err := OpenDiskStore(dir, DiskStoreOptions{Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if err := s.Err(); err != nil {
		t.Fatalf("short write was repaired in-line, but Err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.TornRepaired != 0 || st.CorruptDropped != 0 {
		t.Fatalf("reopen after in-line repair found damage: %+v", st)
	}
	if r.Len() != len(points)-1 {
		t.Fatalf("reopened store has %d points, want %d (torn record's key re-evaluates)", r.Len(), len(points)-1)
	}
}

// fetchResultDoc GETs a job's twolevel-sweep/1 result document bytes.
func fetchResultDoc(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashRoundTripByteIdentical is the kill -9 acceptance test. Run 1
// evaluates a job into a DiskStore while chaos tears one record's write
// (with the in-line repair "crashing" first) and corrupts another's
// payload bytes on disk; the process then "dies" without Close. A fresh
// manager over the reopened directory must serve the resubmitted job
// byte-for-byte identically, re-evaluating exactly the two damaged
// records — everything durably stored comes from the store, asserted via
// the store-hit counters.
func TestCrashRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()

	// --- Run 1: evaluate with fault injection, then "kill -9". ---
	// After counts site hits, and each of the job's 4 evaluations
	// appends through ChaosSiteStoreWrite exactly once, so the rules
	// sequence by write ordinal regardless of worker scheduling.
	in := chaos.New(42)
	// Write #2's payload is corrupted on its way to disk: the bytes land
	// (the write "succeeds") but the checksum must reject them at replay.
	in.Install(chaos.Rule{Site: ChaosSiteStoreWrite, Corrupt: true, After: 1, Times: 1})
	// Write #4 — the final record — is torn mid-append, and the in-line
	// truncate repair is blocked (the crash lands between write and
	// repair): the segment ends in a newline-less half-record for
	// open-time recovery to cut off.
	in.Install(chaos.Rule{Site: ChaosSiteStoreWrite, Short: true, After: 3, Times: 1})
	in.Install(chaos.Rule{Site: ChaosSiteStoreRepair, Times: 1})

	ds, err := OpenDiskStore(dir, DiskStoreOptions{Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	m1 := New(Config{Workers: 2, Store: ds})
	srv1 := httptest.NewServer(NewHandler(m1))

	var st Status
	if code := doJSON(t, http.MethodPost, srv1.URL+"/v1/jobs", tinyJob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	final := pollDone(t, srv1.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("run 1 job state = %s, want done", final.State)
	}
	total := final.Total
	if total != 4 {
		t.Fatalf("run 1 total = %d, want 4", total)
	}
	doc1 := fetchResultDoc(t, srv1.URL, st.ID)
	if in.Fired(ChaosSiteStoreWrite) != 2 || in.Fired(ChaosSiteStoreRepair) != 1 {
		t.Fatalf("chaos fired write=%d repair=%d, want 2 and 1",
			in.Fired(ChaosSiteStoreWrite), in.Fired(ChaosSiteStoreRepair))
	}
	// Kill -9: no ds.Close(), no m1.Shutdown(). Tear down only the
	// listener so the port is free.
	srv1.Close()
	m1.Close()

	// --- Run 2: reopen the directory as a fresh process would. ---
	ds2, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer ds2.Close()
	stats := ds2.Stats()
	if stats.CorruptDropped != 1 || stats.TornRepaired != 1 {
		t.Fatalf("replay repairs = %+v, want exactly 1 corrupt record dropped and 1 torn record truncated", stats)
	}
	if stats.Points != total-2 {
		t.Fatalf("replayed %d of %d points; want exactly the 2 damaged records missing (stats %+v)", stats.Points, total, stats)
	}

	reg := obs.NewRegistry()
	m2 := New(Config{Workers: 2, Store: ds2, Metrics: reg})
	srv2 := httptest.NewServer(NewHandler(m2))
	defer func() { srv2.Close(); m2.Close() }()

	var st2 Status
	if code := doJSON(t, http.MethodPost, srv2.URL+"/v1/jobs", tinyJob, &st2); code != http.StatusAccepted {
		t.Fatalf("run 2 POST /v1/jobs: status %d", code)
	}
	final2 := pollDone(t, srv2.URL, st2.ID)
	if final2.State != StateDone {
		t.Fatalf("run 2 job state = %s, want done", final2.State)
	}

	// Everything durably stored was served from the store; only the two
	// damaged records were re-evaluated.
	if hits := reg.Counter(MetricStoreHits).Value(); hits != uint64(total-2) {
		t.Errorf("store hits = %d, want %d (all surviving records)", hits, total-2)
	}
	if misses := reg.Counter(MetricStoreMisses).Value(); misses != 2 {
		t.Errorf("store misses = %d, want 2 (the damaged records)", misses)
	}

	// The result document is byte-identical across the crash.
	doc2 := fetchResultDoc(t, srv2.URL, st2.ID)
	if !bytes.Equal(doc1, doc2) {
		t.Fatalf("result documents differ across crash+restart:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", doc1, doc2)
	}

	// And the re-evaluated records were persisted this time: a third
	// open replays the complete set.
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
	ds3, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds3.Close()
	if ds3.Len() != total {
		t.Fatalf("third open replays %d points, want %d", ds3.Len(), total)
	}
}

// TestDiskStoreRejectsForeignFormat: a segment written by some other
// (future) format version refuses to open rather than misparse.
func TestDiskStoreRejectsForeignFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.jsonl")
	hdr := fmt.Sprintf(`{"format":%q,"segment":1}`, "twolevel-store-segment/99") + "\n"
	if err := os.WriteFile(path, []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("open of foreign-format segment: err = %v, want unknown-format error", err)
	}
}

// TestDiskStoreCompactionRacesConcurrentAppends: explicit Compact()
// calls race a storm of concurrent overwriting appends (tiny segments,
// so rotation happens constantly under the compactor's feet). The store
// must come out with exactly the last value written per key, no corrupt
// records, and a clean reopen — compaction may never lose or resurrect
// a record, no matter how it interleaves with appends.
func TestDiskStoreCompactionRacesConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	_, points := diskTestData(t)

	s, err := OpenDiskStore(dir, DiskStoreOptions{SegmentBytes: 512, CompactMinDead: 8})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 4
		keysPer = 6
		rounds  = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keysPer; k++ {
					// Overwrite the same keys every round so dead records
					// pile up and trigger (and feed) compaction; vary the
					// stored point per round so "latest wins" is checkable.
					p := points[(r+k)%len(points)]
					s.Put(fmt.Sprintf("g%d-k%d", g, k), p)
				}
			}
		}(g)
	}
	// Explicit compactions race the writers on top of the automatic
	// threshold-triggered ones.
	compacts := make(chan struct{})
	go func() {
		defer close(compacts)
		for i := 0; i < 10; i++ {
			if err := s.Compact(); err != nil {
				t.Errorf("compact under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-compacts

	if err := s.Err(); err != nil {
		t.Fatalf("store poisoned under compaction race: %v", err)
	}
	want := make(map[string]sweep.Point)
	for g := 0; g < writers; g++ {
		for k := 0; k < keysPer; k++ {
			want[fmt.Sprintf("g%d-k%d", g, k)] = points[(rounds-1+k)%len(points)]
		}
	}
	check := func(st *DiskStore, when string) {
		if st.Len() != len(want) {
			t.Fatalf("%s: store has %d keys, want %d", when, st.Len(), len(want))
		}
		for k, wp := range want {
			gp, ok := st.Get(k)
			if !ok {
				t.Fatalf("%s: key %q lost", when, k)
			}
			if gp.AreaRbe != wp.AreaRbe || gp.TPINS != wp.TPINS {
				t.Fatalf("%s: key %q holds a stale value", when, k)
			}
		}
		if cd := st.Stats().CorruptDropped; cd != 0 {
			t.Fatalf("%s: %d records dropped as corrupt", when, cd)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "reopened")
}

// TestDiskStoreReadsFormatFixture pins twolevel-store-segment/1 across
// versions. testdata/store-segment-v1.jsonl was written by the store
// before it moved onto internal/wal: gcc1's first three test points put
// under keys[0], keys[1], then keys[0] again. It must replay to that
// state, and a store putting the same records today must write the
// same bytes.
func TestDiskStoreReadsFormatFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "store-segment-v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	keys, points := diskTestData(t)
	puts := []struct {
		key string
		p   sweep.Point
	}{{keys[0], points[0]}, {keys[1], points[1]}, {keys[0], points[2]}}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Points != 2 || st.Dead != 1 || st.CorruptDropped != 0 || st.TornRepaired != 0 {
		t.Fatalf("fixture replayed to %+v, want 2 points and 1 dead record", st)
	}
	for _, w := range puts[1:] {
		got, ok := s.Get(w.key)
		a, _ := sweep.MarshalPointJSON(got)
		b, _ := sweep.MarshalPointJSON(w.p)
		if !ok || !bytes.Equal(a, b) {
			t.Fatalf("fixture key %q replayed to %s, want %s", w.key, a, b)
		}
	}

	fresh := t.TempDir()
	r, err := OpenDiskStore(fresh, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range puts {
		r.Put(w.key, w.p)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(r.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("today's segment differs from the fixture:\n%s\nvs\n%s", written, fixture)
	}
}

// TestDiskStoreOpenRemovesCompactionTemps: a compaction temp file left
// by a crash before its rename is deleted at open, the replayed state is
// unchanged, and a temp file of another log sharing the directory is
// left alone.
func TestDiskStoreOpenRemovesCompactionTemps(t *testing.T) {
	dir := t.TempDir()
	keys, points := diskTestData(t)
	s, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(s, keys, points)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, compactPrefix+"123.tmp")
	foreign := filepath.Join(dir, "journal-compact-123.tmp")
	for _, p := range []string{leftover, foreign} {
		if err := os.WriteFile(p, []byte(`{"format":"twolevel-store-segment/1","segment":1}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("compaction leftover survived open: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("open removed another log's temp file: %v", err)
	}
	if st := r.Stats(); st.Points != len(points) || st.CorruptDropped != 0 || st.TornRepaired != 0 {
		t.Fatalf("replayed state changed: %+v", st)
	}
}
