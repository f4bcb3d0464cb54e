package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
