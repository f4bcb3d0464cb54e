package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format: the 8-byte magic header "TLTRACE1", then one
// record per reference — a kind byte (0 instr, 1 data read, 2 data write)
// and the address as an unsigned varint. Compact, deterministic, and
// stream-decodable.
var binaryMagic = [8]byte{'T', 'L', 'T', 'R', 'A', 'C', 'E', '1'}

// ErrBadMagic is returned when a binary trace lacks the format header.
var ErrBadMagic = errors.New("trace: bad magic (not a TLTRACE1 binary trace)")

// BinaryWriter encodes references to an io.Writer in the binary format.
type BinaryWriter struct {
	w     *bufio.Writer
	n     uint64
	wrote bool
}

// NewBinaryWriter wraps w. The header is written lazily on first record
// (or by Flush), so constructing a writer cannot fail.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one reference.
func (bw *BinaryWriter) Write(r Ref) error {
	if !bw.wrote {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.wrote = true
	}
	if err := bw.w.WriteByte(byte(r.Kind)); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], r.Addr)
	if _, err := bw.w.Write(buf[:n]); err != nil {
		return err
	}
	bw.n++
	return nil
}

// Count reports how many references have been written.
func (bw *BinaryWriter) Count() uint64 { return bw.n }

// Flush writes the header (if nothing was written yet) and any buffered
// records to the underlying writer.
func (bw *BinaryWriter) Flush() error {
	if !bw.wrote {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.wrote = true
	}
	return bw.w.Flush()
}

// BinaryReader decodes a binary trace as a Stream.
type BinaryReader struct {
	r      *bufio.Reader
	header bool
	err    error
}

// NewBinaryReader wraps r; header validation happens on the first Next.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next decodes the next reference. It reports false at EOF or on error;
// check Err afterwards.
func (br *BinaryReader) Next() (Ref, bool) {
	if br.err != nil {
		return Ref{}, false
	}
	if !br.header {
		var m [8]byte
		if _, err := io.ReadFull(br.r, m[:]); err != nil {
			br.err = fmt.Errorf("trace: reading header: %w", err)
			return Ref{}, false
		}
		if m != binaryMagic {
			br.err = ErrBadMagic
			return Ref{}, false
		}
		br.header = true
	}
	k, err := br.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			br.err = err
		}
		return Ref{}, false
	}
	if k > byte(Write) {
		br.err = fmt.Errorf("trace: invalid kind byte %d", k)
		return Ref{}, false
	}
	a, err := binary.ReadUvarint(br.r)
	if err != nil {
		br.err = fmt.Errorf("trace: truncated record: %w", err)
		return Ref{}, false
	}
	return Ref{Kind: Kind(k), Addr: a}, true
}

// Err reports the first decode error, or nil after a clean EOF.
func (br *BinaryReader) Err() error { return br.err }

// Text trace format: the classic Dinero "din" layout, one reference per
// line as "<label> <hex address>", where label 0 is a data read, 1 a data
// write, and 2 an instruction fetch.

// TextWriter encodes references in din format.
type TextWriter struct {
	w *bufio.Writer
	n uint64
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one reference as a din line.
func (tw *TextWriter) Write(r Ref) error {
	var label byte
	switch r.Kind {
	case Instr:
		label = '2'
	case Write:
		label = '1'
	default:
		label = '0'
	}
	if err := tw.w.WriteByte(label); err != nil {
		return err
	}
	if err := tw.w.WriteByte(' '); err != nil {
		return err
	}
	if _, err := tw.w.WriteString(strconv.FormatUint(r.Addr, 16)); err != nil {
		return err
	}
	tw.n++
	return tw.w.WriteByte('\n')
}

// Count reports how many references have been written.
func (tw *TextWriter) Count() uint64 { return tw.n }

// Flush drains buffered lines to the underlying writer.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// TextReader decodes a din-format trace as a Stream. Blank lines and
// lines starting with '#' are skipped.
type TextReader struct {
	s    *bufio.Scanner
	line int
	err  error
}

// NewTextReader wraps r.
func NewTextReader(r io.Reader) *TextReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{s: s}
}

// Next decodes the next reference; check Err after it reports false.
func (tr *TextReader) Next() (Ref, bool) {
	if tr.err != nil {
		return Ref{}, false
	}
	for tr.s.Scan() {
		tr.line++
		text := strings.TrimSpace(tr.s.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			tr.err = fmt.Errorf("trace: line %d: want \"label addr\", got %q", tr.line, text)
			return Ref{}, false
		}
		var kind Kind
		switch fields[0] {
		case "0":
			kind = Data
		case "1":
			kind = Write
		case "2":
			kind = Instr
		default:
			tr.err = fmt.Errorf("trace: line %d: unknown label %q", tr.line, fields[0])
			return Ref{}, false
		}
		addr, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			tr.err = fmt.Errorf("trace: line %d: bad address %q: %v", tr.line, fields[1], err)
			return Ref{}, false
		}
		return Ref{Kind: kind, Addr: addr}, true
	}
	tr.err = tr.s.Err()
	return Ref{}, false
}

// Err reports the first decode error, or nil after a clean EOF.
func (tr *TextReader) Err() error { return tr.err }

// WriteAll drains a stream into any per-record writer.
func WriteAll(s Stream, write func(Ref) error) (uint64, error) {
	var n uint64
	buf := make([]Ref, BatchRefs)
	for {
		k := Fill(s, buf)
		for _, r := range buf[:k] {
			if err := write(r); err != nil {
				return n, err
			}
			n++
		}
		if k < len(buf) {
			return n, nil
		}
	}
}
