package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// FuzzJournalReplay writes arbitrary bytes as the coordinator journal
// and opens it. Replay must never panic, and its repair must be
// idempotent: when the open succeeds, reopening the repaired file
// replays the same jobs, leases, sequence and record counts with
// nothing left to repair. Seeds are a clean journal written through the
// Record* hooks, its torn cuts and a CRC-flipped line, as
// TestJournalTornTailRecovery and TestJournalCorruptRecordSkipped build
// them.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		f.Fatal(err)
	}
	j.RecordAdmission("j1", testJobRequest())
	j.RecordGrant("l1", "w-a", []string{"k1", "k2"})
	j.RecordRenew("l1")
	j.RecordComplete("k1", true)
	j.RecordGrant("l2", "w-b", []string{"k3"})
	j.RecordExpire("l2")
	j.RecordJobEnd("j1", "done")
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add([]byte{})
	lines := bytes.SplitAfter(clean, []byte("\n"))
	f.Add(lines[0][:len(lines[0])/2]) // torn header
	lastStart := len(clean) - len(lines[len(lines)-2])
	for _, cut := range []int{lastStart + 1, (lastStart + len(clean)) / 2, len(clean) - 1} {
		f.Add(bytes.Clone(clean[:cut])) // torn final record
	}
	corrupt := bytes.Clone(clean)
	corrupt[len(lines[0])+bytes.Index(lines[1], []byte(`"rec"`))+10] ^= 0x01
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, JournalOptions{})
		if err != nil {
			return // a foreign header is refused, not replayed
		}
		first := j.Replayed()
		j.Close() //nolint:errcheck // nothing appended
		j, err = OpenJournal(dir, JournalOptions{})
		if err != nil {
			t.Fatalf("reopening the repaired journal: %v", err)
		}
		second := j.Replayed()
		j.Close() //nolint:errcheck // nothing appended
		if second.TornRepaired != 0 {
			t.Fatalf("reopen repaired %d torn tails, want 0", second.TornRepaired)
		}
		first.TornRepaired = 0
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("replay changed across a reopen:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}

// FuzzWorkUnit decodes arbitrary bytes as a lease response, the wire
// form a worker pulls its units in, and runs validateUnit on every unit.
// Decoding and validation must never panic; an accepted unit must carry
// a non-negative retry count; and an accepted unit must re-marshal,
// decode and validate again to the same unitKey. Seeds are the valid
// unit TestValidateUnit builds and its tampered-key, unknown-workload,
// bad-geometry and negative-retries variants.
func FuzzWorkUnit(f *testing.F) {
	wl, err := spec.ByName("gcc1")
	if err != nil {
		f.Fatal(err)
	}
	opt := sweep.NewEvaluator(wl, sweep.Options{Refs: 1000}).Options()
	cfg := testConfig(2<<10, 32<<10)
	u := workUnit{Key: sweep.Key("gcc1", cfg, opt), Workload: "gcc1", Options: optionsToWire(opt), Config: cfg}
	tampered, unknown, geometry, negative := u, u, u, u
	tampered.Key = "sha256:0000"
	unknown.Workload = "no-such-workload"
	geometry.Config.L1I.Size = 3000
	negative.Options.Retries = -1
	negative.Key = unitKey(negative)
	for _, units := range [][]workUnit{{u}, {tampered}, {unknown}, {geometry}, {negative}, {u, negative}} {
		b, err := json.Marshal(leaseResponse{LeaseID: "l1", Units: units})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var lease leaseResponse
		if json.Unmarshal(data, &lease) != nil {
			return
		}
		for _, u := range lease.Units {
			if validateUnit(u) != nil {
				continue
			}
			if u.Options.Retries < 0 {
				t.Fatalf("accepted a unit with %d retries", u.Options.Retries)
			}
			b, err := json.Marshal(u)
			if err != nil {
				t.Fatalf("re-marshaling an accepted unit: %v", err)
			}
			var again workUnit
			if err := json.Unmarshal(b, &again); err != nil {
				t.Fatalf("decoding a re-marshaled unit: %v\n%s", err, b)
			}
			if err := validateUnit(again); err != nil {
				t.Fatalf("re-marshaled unit rejected: %v\n%s", err, b)
			}
			if k1, k2 := unitKey(u), unitKey(again); k1 != k2 {
				t.Fatalf("unit key changed across a round trip:\n%s\n%s", k1, k2)
			}
		}
	})
}
