package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twolevel/internal/wal"
)

// FuzzDiskStoreReplay opens a store whose only (active) segment holds
// arbitrary bytes, seeded with a clean segment and the torn and corrupt
// variants the chaos tests build from it. Open must never panic; its
// repair may only cut bytes off a segment that replayed points; every
// replayed point must rebuild a core.Config and perf.Machine that
// validate; every replayed record must round-trip through encodeRecord,
// wal.Decode and decodeRecord unchanged; and reopening the repaired
// segment must replay the same points with nothing left to repair.
func FuzzDiskStoreReplay(f *testing.F) {
	keys, points := diskTestData(f)
	var seg bytes.Buffer
	seg.WriteString(`{"format":"` + segmentFormat + `","segment":1}` + "\n")
	// Two records keep the seeds small enough for the fuzzer to mutate
	// and minimize quickly.
	for i, k := range keys[:2] {
		line, err := encodeRecord(k, points[i])
		if err != nil {
			f.Fatal(err)
		}
		seg.Write(line)
	}
	whole := seg.Bytes()
	lines := bytes.SplitAfter(whole, []byte("\n"))
	f.Add(whole)
	f.Add([]byte{})
	f.Add(lines[0])
	f.Add(lines[0][:len(lines[0])/2]) // torn header
	// Torn final records, as TestDiskStoreTornFinalRecord cuts them.
	lastStart := bytes.LastIndexByte(bytes.TrimSuffix(whole, []byte("\n")), '\n') + 1
	for _, cut := range []int{lastStart + 1, (lastStart + len(whole)) / 2, len(whole) - 1} {
		f.Add(bytes.Clone(whole[:cut]))
	}
	// A checksum-failing record, as TestDiskStoreCorruptRecordDropped
	// flips it.
	corrupt := bytes.Clone(whole)
	corrupt[len(lines[0])+bytes.Index(lines[1], []byte(`"rec"`))+20] ^= 0x01
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-000001.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDiskStore(dir, DiskStoreOptions{})
		if err != nil {
			return // a foreign or unparsable header is refused, not replayed
		}
		first := s.Stats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first.Points > 0 && !bytes.HasPrefix(data, repaired) {
			t.Fatalf("repair rewrote a segment that replayed %d points", first.Points)
		}
		for key, p := range s.m {
			if err := p.Config.Validate(); err != nil {
				t.Fatalf("replayed %q with an invalid configuration: %v", key, err)
			}
			if err := p.Machine.Validate(); err != nil {
				t.Fatalf("replayed %q with an invalid machine: %v", key, err)
			}
			line, err := encodeRecord(key, p)
			if err != nil {
				t.Fatalf("re-encoding %q: %v", key, err)
			}
			body, err := wal.Decode(line)
			if err != nil {
				t.Fatalf("re-encoded %q does not decode: %v", key, err)
			}
			k2, p2, err := decodeRecord(body)
			if err != nil || k2 != key || !reflect.DeepEqual(p2, p) {
				t.Fatalf("record %q does not round-trip: key %q, err %v\n%+v\nvs\n%+v", key, k2, err, p2, p)
			}
		}
		r, err := OpenDiskStore(dir, DiskStoreOptions{})
		if err != nil {
			t.Fatalf("reopening the repaired store: %v", err)
		}
		second := r.Stats()
		r.Close() //nolint:errcheck // nothing appended
		if second.TornRepaired != 0 || second.CorruptDropped != first.CorruptDropped ||
			second.Points != first.Points || !reflect.DeepEqual(r.m, s.m) {
			t.Fatalf("replay changed across a reopen:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
