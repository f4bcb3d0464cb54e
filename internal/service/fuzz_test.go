package service

import (
	"bytes"
	"reflect"
	"testing"

	"twolevel/internal/sweep"
)

// FuzzDiskStoreReplay runs the segment decoder over arbitrary bytes as
// the active (final) segment, seeded with a clean segment and the torn
// and corrupt variants the chaos tests build from it. Replay must never
// panic; a torn offset must be -1 or lie within the input; every
// replayed point must rebuild a core.Config and perf.Machine that
// validate; and every replayed record must round-trip through
// encodeRecord and decodeRecord unchanged.
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
		s := &DiskStore{m: make(map[string]sweep.Point)}
		torn, err := s.replayFrom(bytes.NewReader(data), 1, true)
		if err != nil {
			return // a foreign or unparsable header is refused, not replayed
		}
		if torn != -1 && (torn < 0 || torn >= int64(len(data))) {
			t.Fatalf("torn offset %d outside the %d-byte input", torn, len(data))
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
			k2, p2, err := decodeRecord(bytes.TrimSuffix(line, []byte("\n")))
			if err != nil || k2 != key || !reflect.DeepEqual(p2, p) {
				t.Fatalf("record %q does not round-trip: key %q, err %v\n%+v\nvs\n%+v", key, k2, err, p2, p)
			}
		}
	})
}
