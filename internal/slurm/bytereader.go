package slurm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// maxLineLen is the line-length cap of NewByteRecordReader and the
// chunked decoders, in bytes before the line terminator.
const maxLineLen = 1 << 20

// ByteRecordReader frames pipe-separated sacct text into lines and
// decodes each through one Decoder: lines are pulled straight from the
// read buffer as []byte, so steady-state decode allocates nothing per
// row. The returned record and the Row backing storage are valid only
// until the following Next call.
type ByteRecordReader struct {
	r    *bufio.Reader
	dec  *Decoder
	max  int    // longest accepted line, in bytes before "\n"
	line int    // lines consumed so far (base included)
	long []byte // spill for lines longer than the read buffer
}

// NewByteRecordReader reads and validates the header line of r, capping
// lines at 1 MiB. An empty input is ErrNoHeader; a header naming an
// unknown field is an *UnknownFieldError.
func NewByteRecordReader(r io.Reader) (*ByteRecordReader, error) {
	return NewByteRecordReaderLimit(r, maxLineLen)
}

// NewByteRecordReaderLimit is NewByteRecordReader with a caller-chosen
// line cap: a line longer than maxLine bytes is a terminal error that
// names its line number.
func NewByteRecordReaderLimit(r io.Reader, maxLine int) (*ByteRecordReader, error) {
	br := &ByteRecordReader{r: bufio.NewReaderSize(r, 1<<16), max: maxLine}
	header, err := br.readLine()
	if err == io.EOF {
		return nil, ErrNoHeader
	}
	if err != nil {
		return nil, err
	}
	if br.dec, err = NewDecoder(string(header)); err != nil {
		return nil, err
	}
	return br, nil
}

// newByteRecordReader wraps an already-positioned reader whose header
// was resolved elsewhere (the ChunkScanner path). lineBase seeds the
// line counter: 1 for a chunk that starts right after the header (so
// RowError lines match a whole-file reader), 0 for interior chunks,
// whose line numbers are then chunk-relative.
func newByteRecordReader(r *bufio.Reader, dec *Decoder, lineBase int) *ByteRecordReader {
	return &ByteRecordReader{r: r, dec: dec, max: maxLineLen, line: lineBase}
}

// Fields returns the header's field names in column order. The slice is
// owned by the reader; callers must not modify it.
func (br *ByteRecordReader) Fields() []string { return br.dec.Fields() }

// Line returns the line number of the most recently consumed input
// line: 1-based in the input when the reader saw the header itself,
// chunk-relative for an interior chunk.
func (br *ByteRecordReader) Line() int { return br.line }

// Row returns the raw columns of the row Next most recently decoded.
// The backing storage aliases the read buffer and is reused by the
// following Next call.
func (br *ByteRecordReader) Row() [][]byte { return br.dec.Row() }

// readLine returns the next input line with its trailing "\n" (and one
// "\r" before it) stripped, including a final unterminated line. The
// slice aliases the read buffer (or the long-line spill) and is valid
// until the next call.
func (br *ByteRecordReader) readLine() ([]byte, error) {
	line, err := br.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Rare long line: accumulate into owned spill storage.
		br.long = append(br.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(br.long) > br.max {
				return nil, br.tooLong(br.line + 1)
			}
			line, err = br.r.ReadSlice('\n')
			br.long = append(br.long, line...)
		}
		line = br.long
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(line) == 0 {
		return nil, io.EOF
	}
	br.line++
	if n := len(line); line[n-1] == '\n' {
		line = line[:n-1]
	}
	if len(line) > br.max {
		return nil, br.tooLong(br.line)
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

func (br *ByteRecordReader) tooLong(line int) error {
	return fmt.Errorf("slurm: line %d: row exceeds %d bytes", line, br.max)
}

// Next decodes the next data row. Blank lines are skipped. It returns
// io.EOF at the end of input, a *RowError for a malformed row (callers
// may keep reading past it), and any other error terminally.
func (br *ByteRecordReader) Next() (*Record, error) {
	for {
		line, err := br.readLine()
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := br.dec.Decode(line)
		if err != nil {
			return nil, &RowError{Line: br.line, Err: err}
		}
		return rec, nil
	}
}

// All returns the reader's remaining rows as a RecordSeq: malformed
// rows yield (nil, *RowError) and iteration continues; a terminal error
// is yielded last. Records alias the reader's scratch storage.
func (br *ByteRecordReader) All() RecordSeq {
	return func(yield func(*Record, error) bool) {
		for {
			rec, err := br.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if _, ok := err.(*RowError); ok {
					if !yield(nil, err) {
						return
					}
					continue
				}
				yield(nil, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}
