package slurm

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Chunk is one newline-aligned byte range of a period file's data
// region: it starts at the first byte of a data line and ends just past
// a line terminator (or at end of file), so no row straddles two chunks.
type Chunk struct {
	Off int64 // absolute file offset of the chunk's first byte
	Len int64 // byte length
}

// ChunkScanner plans a parallel decode of one sacct period file. The
// header is read and resolved once; the data region is split into at
// most n chunks of roughly equal size whose boundaries are advanced to
// the next newline, so every chunk is a whole number of rows and the
// chunk decoders can run independently. Files smaller than one row per
// requested chunk simply yield fewer chunks.
type ChunkScanner struct {
	path   string
	fields []*Field
	names  []string
	chunks []Chunk
}

// chunkAlignBuf sizes the read buffer used to find the newline after a
// candidate chunk boundary.
const chunkAlignBuf = 64 << 10

// NewChunkScanner resolves path's header and plans up to n newline-
// aligned chunks over its data region. An empty input or a header
// naming an unknown field is an error, exactly as in NewByteRecordReader.
func NewChunkScanner(path string, n int) (*ChunkScanner, error) {
	if n < 1 {
		n = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()

	header, headerLen, err := readHeaderLine(f)
	if err != nil {
		return nil, err
	}
	fields, names, err := resolveHeader(header)
	if err != nil {
		return nil, err
	}

	cs := &ChunkScanner{path: path, fields: fields, names: names}
	dataStart := headerLen
	if dataStart >= size {
		return cs, nil // header only: zero chunks
	}
	target := (size - dataStart + int64(n) - 1) / int64(n)
	prev := dataStart
	for prev < size {
		end := prev + target
		if end >= size {
			end = size
		} else {
			end, err = nextLineStart(f, end, size)
			if err != nil {
				return nil, err
			}
		}
		if end > prev {
			cs.chunks = append(cs.chunks, Chunk{Off: prev, Len: end - prev})
		}
		prev = end
	}
	return cs, nil
}

// readHeaderLine reads the first line of f, returning its text (without
// the terminator) and the file offset of the first data byte.
func readHeaderLine(f *os.File) (string, int64, error) {
	br := bufio.NewReaderSize(f, 1<<16)
	line, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return "", 0, err
	}
	if line == "" {
		return "", 0, ErrNoHeader
	}
	off := int64(len(line))
	line = trimLineEnd(line)
	return line, off, nil
}

// trimLineEnd drops a trailing "\n" and one "\r" before it.
func trimLineEnd(s string) string {
	if n := len(s); n > 0 && s[n-1] == '\n' {
		s = s[:n-1]
	}
	if n := len(s); n > 0 && s[n-1] == '\r' {
		s = s[:n-1]
	}
	return s
}

// nextLineStart returns the offset of the first byte after the next
// '\n' at or beyond off, or size when no newline remains.
func nextLineStart(f *os.File, off, size int64) (int64, error) {
	buf := make([]byte, chunkAlignBuf)
	for off < size {
		n, err := f.ReadAt(buf, off)
		if n > 0 {
			if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
				return off + int64(i) + 1, nil
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return size, nil
}

// Fields returns the header's field names in column order. The slice is
// owned by the scanner; callers must not modify it.
func (cs *ChunkScanner) Fields() []string { return cs.names }

// NumChunks returns how many chunks the plan produced.
func (cs *ChunkScanner) NumChunks() int { return len(cs.chunks) }

// Chunks returns a copy of the planned byte ranges, in file order.
func (cs *ChunkScanner) Chunks() []Chunk {
	out := make([]Chunk, len(cs.chunks))
	copy(out, cs.chunks)
	return out
}

// Open returns a reader over chunk i, with its own Decoder, plus the
// file handle to close when done. Chunk 0 starts right after the
// header, so its RowError line numbers match a whole-file reader's;
// interior chunks report chunk-relative line numbers.
func (cs *ChunkScanner) Open(i int) (*ByteRecordReader, io.Closer, error) {
	f, err := os.Open(cs.path)
	if err != nil {
		return nil, nil, err
	}
	c := cs.chunks[i]
	base := 0
	if i == 0 {
		base = 1 // the header line precedes chunk 0
	}
	sec := io.NewSectionReader(f, c.Off, c.Len)
	return newByteRecordReader(bufio.NewReaderSize(sec, 1<<16), newDecoder(cs.fields, cs.names), base), f, nil
}

// batchRows sizes the record batches the parallel merge hands between
// goroutines: big enough to amortise channel traffic, small enough to
// keep per-chunk buffering bounded.
const batchRows = 1024

// chunkItem is one merged-stream event: a decoded record or an error
// (a *RowError to skip past, anything else terminal).
type chunkItem struct {
	rec Record
	err error
}

// All decodes every chunk on a pool of `workers` goroutines and merges
// the results into one RecordSeq in file order: chunk i's rows are
// yielded, in order, before chunk i+1's. Records are copied out of the
// per-chunk decoder scratch into batches, so each yielded record is
// valid until the following iteration, same as ByteRecordReader.All.
// Stopping the iteration early cancels the outstanding decoders.
func (cs *ChunkScanner) All(workers int) RecordSeq {
	return func(yield func(*Record, error) bool) {
		n := len(cs.chunks)
		if n == 0 {
			return
		}
		if workers < 1 {
			workers = 1
		}
		if workers > n {
			workers = n
		}
		chans := make([]chan []chunkItem, n)
		for i := range chans {
			chans[i] = make(chan []chunkItem, 2)
		}
		done := make(chan struct{})
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					cs.decodeChunk(i, chans[i], done)
				}
			}()
		}
		defer wg.Wait()
		defer close(done)
		for i := 0; i < n; i++ {
			for batch := range chans[i] {
				for j := range batch {
					it := &batch[j]
					if it.err != nil {
						if _, ok := it.err.(*RowError); ok {
							if !yield(nil, it.err) {
								return
							}
							continue
						}
						yield(nil, it.err)
						return
					}
					if !yield(&it.rec, nil) {
						return
					}
				}
			}
		}
	}
}

// decodeChunk runs one chunk's decoder to completion, sending copied
// record batches on out (closed when the chunk is done) and stopping
// promptly when done is closed. A terminal error ends the batch stream.
func (cs *ChunkScanner) decodeChunk(i int, out chan<- []chunkItem, done <-chan struct{}) {
	defer close(out)
	rr, closer, err := cs.Open(i)
	if err != nil {
		select {
		case out <- []chunkItem{{err: err}}:
		case <-done:
		}
		return
	}
	defer closer.Close()
	batch := make([]chunkItem, 0, batchRows)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case out <- batch:
			batch = make([]chunkItem, 0, batchRows)
			return true
		case <-done:
			return false
		}
	}
	for {
		rec, err := rr.Next()
		switch {
		case err == io.EOF:
			flush()
			return
		case err != nil:
			batch = append(batch, chunkItem{err: err})
			if _, ok := err.(*RowError); !ok {
				flush()
				return
			}
		default:
			batch = append(batch, chunkItem{rec: *rec})
		}
		if len(batch) == batchRows {
			if !flush() {
				return
			}
		}
	}
}
