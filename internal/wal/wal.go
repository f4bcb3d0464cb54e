// Package wal is the write-ahead log format and crash mechanics of the
// durable result store (internal/service). It owns no policy: what a
// torn tail means, when to compact and how to fold records stay with
// the caller.
//
// A log is a JSON header line naming its format, then one framed record
// per line:
//
//	{"crc":<IEEE CRC32 of rec>,"rec":<record JSON>}\n
//
// with the checksum taken over the exact bytes of rec. A line without
// its newline can only be the last one, cut off by a crash mid-append
// (a torn tail). A complete line whose frame or checksum fails is
// corruption the checksum exists to catch.
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Encode marshals rec and frames it as one newline-terminated line.
func Encode(rec any) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	// json.Marshal output is compact and escaped, so writing it verbatim
	// gives the bytes a marshaled {crc, rec} struct would.
	line := make([]byte, 0, len(body)+32)
	line = append(line, `{"crc":`...)
	line = strconv.AppendUint(line, uint64(crc32.ChecksumIEEE(body)), 10)
	line = append(line, `,"rec":`...)
	line = append(line, body...)
	return append(line, "}\n"...), nil
}

// Decode verifies one framed line and returns its rec bytes.
func Decode(line []byte) (json.RawMessage, error) {
	var fr struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	if err := json.Unmarshal(line, &fr); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(fr.Rec) != fr.CRC {
		return nil, errors.New("wal: record checksum mismatch")
	}
	return fr.Rec, nil
}

// Result is what scanning a log found.
type Result struct {
	// Records counts lines the callback accepted; Corrupt counts
	// complete lines whose frame or checksum failed or that the callback
	// rejected.
	Records, Corrupt int
	// Size is the length of the log's complete lines; 0 means the log
	// is empty or its header is torn.
	Size int64
	// Torn is the offset of a newline-less tail (0 for a torn header),
	// or -1 when the log ends cleanly.
	Torn int64
}

// Scan reads a log from r. The header line must name format; it is
// decoded into hdr. Each record line that decodes is handed to rec as
// its rec bytes. A read error other than io.EOF is returned as is,
// never taken for a torn tail.
func Scan(r io.Reader, format string, hdr any, rec func(body []byte) error) (Result, error) {
	res := Result{Torn: -1}
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return Result{Torn: -1}, fmt.Errorf("wal: read: %w", err)
		}
		if len(line) == 0 {
			return res, nil
		}
		if line[len(line)-1] != '\n' {
			res.Torn = res.Size
			return res, nil
		}
		if res.Size == 0 {
			if err := decodeHeader(line, format, hdr); err != nil {
				return Result{Torn: -1}, err
			}
		} else if body, err := Decode(line); err != nil || rec(body) != nil {
			res.Corrupt++
		} else {
			res.Records++
		}
		res.Size += int64(len(line))
	}
}

func decodeHeader(line []byte, format string, hdr any) error {
	var h struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("wal: header: %w", err)
	}
	if h.Format != format {
		return fmt.Errorf("wal: unknown format %q (want %q)", h.Format, format)
	}
	return json.Unmarshal(line, hdr)
}

// Open opens the existing log at path for appending after scanning it
// as Scan does. It truncates a torn tail off and, when that leaves the
// log empty, writes hdr as its header, so the file is append-safe.
// Result.Torn still reports the repaired offset.
func Open(path, format string, hdr any, rec func(body []byte) error) (*os.File, Result, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, Result{}, err
	}
	res, err := Scan(f, format, hdr, rec)
	if err == nil && res.Torn >= 0 {
		err = f.Truncate(res.Torn)
	}
	if err == nil && res.Size == 0 {
		res.Size, err = writeHeader(f, hdr)
	}
	if err != nil {
		f.Close() //nolint:errcheck // error path
		return nil, Result{}, err
	}
	return f, res, nil
}

// Create makes a new log at path holding only hdr and returns it open
// for appending with the header's length. The file and its directory
// are fsynced, so the log survives power loss from the start.
func Create(path string, hdr any) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	n, err := writeHeader(f, hdr)
	if err != nil {
		f.Close() //nolint:errcheck // error path
		return nil, 0, err
	}
	syncDir(filepath.Dir(path))
	return f, n, nil
}

// writeHeader appends hdr's line to f and fsyncs it.
func writeHeader(f *os.File, hdr any) (int64, error) {
	b, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		return 0, fmt.Errorf("wal: header: %w", err)
	}
	return int64(len(b) + 1), f.Sync()
}

// Rewrite atomically replaces the log at path with hdr and the records
// emit passes to add. The new log goes to a tmpPrefix*.tmp file in the
// same directory, which is flushed, fsynced and renamed over path, and
// the directory is fsynced: a crash leaves the old log or the new one,
// never a mix. RemoveTemps deletes what a crash mid-rewrite leaves.
func Rewrite(path, tmpPrefix string, hdr any, emit func(add func(rec any) error) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after the rename
	w := bufio.NewWriterSize(tmp, 256<<10)
	hb, err := json.Marshal(hdr)
	if err == nil {
		_, err = w.Write(append(hb, '\n'))
	}
	if err == nil {
		err = emit(func(rec any) error {
			line, err := Encode(rec)
			if err == nil {
				_, err = w.Write(line)
			}
			return err
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// RemoveTemps deletes the tmpPrefix*.tmp files in dir that a Rewrite
// left behind when its process died before the rename. It touches no
// other prefix, so logs with distinct prefixes may share a directory.
func RemoveTemps(dir, tmpPrefix string) {
	ents, _ := os.ReadDir(dir) //nolint:errcheck // best-effort: the caller's open reports a bad dir
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, tmpPrefix) && strings.HasSuffix(n, ".tmp") {
			os.Remove(filepath.Join(dir, n)) //nolint:errcheck // best-effort
		}
	}
}

// syncDir best-effort fsyncs a directory so creates and renames in it
// are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()  //nolint:errcheck // advisory; data writes carry their own fsync
		d.Close() //nolint:errcheck // read side
	}
}
