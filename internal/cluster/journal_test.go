package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// recordFixtureOps appends the records of testdata/cluster-journal-v1.jsonl.
func recordFixtureOps(j *Journal) {
	j.RecordAdmission("j1", testJobRequest())
	j.RecordAdmission("j2", testJobRequest())
	j.RecordGrant("l1", "w-a", []string{"k1", "k2"})
	j.RecordGrant("l2", "w-b", []string{"k3"})
	j.RecordRenew("l1")
	j.RecordComplete("k1", true)
	j.RecordExpire("l2")
	j.RecordJobEnd("j2", "done")
}

// TestJournalReadsFormatFixture pins twolevel-cluster-journal/1 across
// versions. testdata/cluster-journal-v1.jsonl was written by the
// journal before it moved onto internal/wal, through the Record* hooks
// of recordFixtureOps: an admission, grant, renew, complete, expire and
// job-end among them. It must replay to j1 live with l1 holding k2, and
// a journal recording the same operations today must write the same
// bytes.
func TestJournalReadsFormatFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "cluster-journal-v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := j.Replayed()
	j.Close()
	want := JournalReplay{
		Jobs:    []JournaledJob{{ID: "j1", Req: testJobRequest()}},
		Leases:  []JournaledLease{{ID: "l1", Worker: "w-a", Keys: []string{"k2"}}},
		Seq:     2,
		Records: 8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture replayed to %+v, want %+v", got, want)
	}

	fresh := t.TempDir()
	j, err = OpenJournal(fresh, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recordFixtureOps(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(fresh, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("today's journal differs from the fixture:\n%s\nvs\n%s", written, fixture)
	}
}

// TestJournalOpenRemovesCompactionTemps: a compaction temp file left by
// a crash before its rename is deleted at open, the replay is
// unchanged, and a temp file of another log sharing the directory (the
// result store's) is left alone.
func TestJournalOpenRemovesCompactionTemps(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recordFixtureOps(j)
	j.Close()
	j, err = OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := j.Replayed()
	j.Close()

	leftover := filepath.Join(dir, journalTempPrefix+"123.tmp")
	foreign := filepath.Join(dir, "compact-123.tmp")
	for _, p := range []string{leftover, foreign} {
		if err := os.WriteFile(p, []byte(`{"format":"`+JournalFormat+`","seq":0}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err = OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("compaction leftover survived open: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("open removed another log's temp file: %v", err)
	}
	if after := j.Replayed(); !reflect.DeepEqual(after, before) {
		t.Fatalf("replay changed:\nbefore %+v\nafter  %+v", before, after)
	}
}
