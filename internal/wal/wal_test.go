package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testFormat = "twolevel-wal-test/1"

type testHeader struct {
	Format string `json:"format"`
	N      int    `json:"n"`
}

type testRec struct {
	K string `json:"k"`
	V string `json:"v,omitempty"`
}

// testLog builds a header line plus one framed line per record.
func testLog(t *testing.T, recs ...testRec) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"format":"` + testFormat + `","n":7}` + "\n")
	for _, r := range recs {
		line, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
	}
	return b.Bytes()
}

// scanAll scans data, collecting the accepted records.
func scanAll(data []byte, r io.Reader) (Result, testHeader, []testRec, error) {
	if r == nil {
		r = bytes.NewReader(data)
	}
	var hdr testHeader
	var got []testRec
	res, err := Scan(r, testFormat, &hdr, func(body []byte) error {
		var rec testRec
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		if rec.K == "" {
			return errors.New("no key")
		}
		got = append(got, rec)
		return nil
	})
	return res, hdr, got, err
}

// TestEncodeMatchesMarshaledFrame: the hand-built frame is byte for byte
// what marshaling a {crc, rec} struct gives, including strings that
// json.Marshal escapes.
func TestEncodeMatchesMarshaledFrame(t *testing.T) {
	for _, rec := range []testRec{{K: "a"}, {K: "<&>", V: "line\nbreak   \"q\""}, {}} {
		line, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(rec)
		want, _ := json.Marshal(struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}{crc32.ChecksumIEEE(body), body})
		if want = append(want, '\n'); !bytes.Equal(line, want) {
			t.Fatalf("Encode(%+v) = %s, want %s", rec, line, want)
		}
		got, err := Decode(line)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("Decode = %s, %v; want %s", got, err, body)
		}
	}
}

// TestScanCleanTornCorrupt: a clean log, a torn header, a torn tail and
// a checksum-failing line each scan to the documented Result.
func TestScanCleanTornCorrupt(t *testing.T) {
	whole := testLog(t, testRec{K: "a"}, testRec{K: "b"}, testRec{K: "c"})
	hdrLen := int64(bytes.IndexByte(whole, '\n') + 1)
	lastStart := int64(bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1)
	corrupt := bytes.Clone(whole)
	corrupt[hdrLen+20] ^= 0x01 // inside the first record's rec payload
	rejected := testLog(t, testRec{K: "a"}, testRec{}, testRec{K: "c"})

	cases := []struct {
		name string
		data []byte
		want Result
		recs int
	}{
		{"empty", nil, Result{Torn: -1}, 0},
		{"clean", whole, Result{Records: 3, Size: int64(len(whole)), Torn: -1}, 3},
		{"torn header", whole[:hdrLen-1], Result{Torn: 0}, 0},
		{"torn tail", whole[:len(whole)-1], Result{Records: 2, Size: lastStart, Torn: lastStart}, 2},
		{"corrupt line", corrupt, Result{Records: 2, Corrupt: 1, Size: int64(len(whole)), Torn: -1}, 2},
		{"rejected by callback", rejected, Result{Records: 2, Corrupt: 1, Size: int64(len(rejected)), Torn: -1}, 2},
	}
	for _, c := range cases {
		res, hdr, got, err := scanAll(c.data, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res != c.want || len(got) != c.recs {
			t.Fatalf("%s: %+v with %d records, want %+v with %d", c.name, res, len(got), c.want, c.recs)
		}
		if res.Size > 0 && hdr.N != 7 {
			t.Fatalf("%s: header decoded to %+v", c.name, hdr)
		}
	}
}

// TestScanRejectsForeignHeader: a complete header of another format, or
// one that is not JSON, is an error rather than an empty log.
func TestScanRejectsForeignHeader(t *testing.T) {
	for _, data := range []string{`{"format":"other/1"}` + "\n", "not json\n"} {
		if _, _, _, err := scanAll([]byte(data), nil); err == nil {
			t.Fatalf("Scan(%q) accepted a foreign header", data)
		}
	}
	_, _, _, err := scanAll([]byte(`{"format":"other/1"}`+"\n"), nil)
	if !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("foreign format error = %v", err)
	}
}

// failingReader yields data, then err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestScanReturnsReadErrors: a read error after a clean header and
// records, or partway through a line, is returned as the error. It is
// never reported as a torn tail, which a caller would truncate.
func TestScanReturnsReadErrors(t *testing.T) {
	eio := errors.New("input/output error")
	whole := testLog(t, testRec{K: "a"}, testRec{K: "b"})
	for _, cut := range []int{0, bytes.IndexByte(whole, '\n') / 2, bytes.IndexByte(whole, '\n') + 1, len(whole) - 5, len(whole)} {
		res, _, _, err := scanAll(nil, &failingReader{data: bytes.Clone(whole[:cut]), err: eio})
		if !errors.Is(err, eio) {
			t.Fatalf("cut %d: err = %v, want the read error", cut, err)
		}
		if res.Torn != -1 {
			t.Fatalf("cut %d: torn offset %d reported with a read error", cut, res.Torn)
		}
	}
}

// TestOpenRepairsAndCreateRefusesExisting: Open truncates a torn tail,
// rewrites the header of a log left empty and appends after the repair;
// Create refuses a path that exists.
func TestOpenRepairsAndCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	hdr := testHeader{Format: testFormat, N: 7}
	f, n, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := Encode(testRec{K: "a"})
	f.Write(line)                          //nolint:errcheck // checked by the reads below
	f.Write([]byte(`{"crc":1,"rec":{"k"`)) //nolint:errcheck // a torn tail
	f.Close()
	if _, _, err := Create(path, hdr); !errors.Is(err, os.ErrExist) {
		t.Fatalf("Create over an existing log: %v", err)
	}

	var got testHeader
	f, res, err := Open(path, testFormat, &got, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := (Result{Records: 1, Size: n + int64(len(line)), Torn: n + int64(len(line))}); res != want || got != hdr {
		t.Fatalf("Open = %+v, header %+v; want %+v, %+v", res, got, want, hdr)
	}
	f.Write(line) //nolint:errcheck // checked below
	f.Close()
	res, _, recs, err := scanAll(nil, mustOpen(t, path))
	if err != nil || res.Torn != -1 || len(recs) != 2 {
		t.Fatalf("after repair and append: %+v, %d records, %v", res, len(recs), err)
	}

	// A torn header is cut to nothing and replaced by hdr.
	if err := os.WriteFile(path, []byte(`{"format":"twol`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, res, err = Open(path, testFormat, &hdr, func([]byte) error { return nil })
	if err != nil || res.Torn != 0 || res.Size != n {
		t.Fatalf("torn header: %+v, %v", res, err)
	}
	f.Close()
	if b, _ := os.ReadFile(path); string(b) != `{"format":"`+testFormat+`","n":7}`+"\n" {
		t.Fatalf("torn header repaired to %q", b)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestRewriteAndRemoveTemps: Rewrite replaces the log with exactly the
// header and the emitted records and leaves no temp file; a failing emit
// leaves the old log in place; RemoveTemps deletes only its own prefix.
func TestRewriteAndRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hdr := testHeader{Format: testFormat, N: 7}
	err := Rewrite(path, "x-", hdr, func(add func(any) error) error {
		if err := add(testRec{K: "a"}); err != nil {
			return err
		}
		return add(testRec{K: "b"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, testLog(t, testRec{K: "a"}, testRec{K: "b"})) {
		t.Fatalf("rewritten log = %q", b)
	}
	boom := errors.New("boom")
	if err := Rewrite(path, "x-", hdr, func(func(any) error) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing emit: %v", err)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, testLog(t, testRec{K: "a"}, testRec{K: "b"})) {
		t.Fatalf("a failed rewrite changed the log to %q", b)
	}

	for _, name := range []string{"x-1.tmp", "x-2.tmp", "y-x-1.tmp", "x-3.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveTemps(dir, "x-")
	ents, _ := os.ReadDir(dir)
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if want := []string{"log.jsonl", "x-3.txt", "y-x-1.tmp"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("after RemoveTemps: %v, want %v", left, want)
	}
}
