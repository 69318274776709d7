package slurm

import (
	"errors"
	"fmt"
	"strings"
)

// internCap bounds the per-decoder string and flag caches. Past it the
// decoder keeps decoding correctly but allocates fresh strings; real
// sacct columns (users, accounts, partitions, states) stay far below.
const internCap = 1 << 15

// ErrNoHeader reports pipe text with no header line at all.
var ErrNoHeader = errors.New("slurm: input has no header")

// UnknownFieldError reports a header column that names no catalogue
// field.
type UnknownFieldError struct {
	Name string // the column as spelled in the header
}

// Error implements error.
func (e *UnknownFieldError) Error() string {
	return fmt.Sprintf("slurm: unknown field %q in header", e.Name)
}

// Decoder decodes pipe-separated sacct rows against one resolved
// header. It is the row decoder behind every pipe-text ingest path:
// ByteRecordReader and ChunkScanner frame lines from files and streams,
// the query service frames request bodies and tailed files, and each
// hands its non-blank lines to Decode. Columns are tokenized without
// string conversion, typed fields decode through the Field.SetBytes
// parsers (ParseTimeBytes, ParseDurationBytes, ...), and free-form
// string columns are interned — one allocation per distinct value per
// decoder, not per row — so steady-state decode of a repetitive trace
// allocates nothing per row. DecodeRecord is the independent string
// reference it is checked against. A Decoder is not safe for
// concurrent use.
type Decoder struct {
	fields []*Field  // pre-resolved header columns, in header order
	names  []string  // header spellings, for error attribution
	cols   [][]byte  // per-row column scratch; subslices alias the line
	rec    Record    // per-row record scratch
	strs   *Interner // cell bytes → immutable string, for Set-path fields

	flagsCache map[string][]string // raw Flags cell → pre-split, capacity-clipped slice
}

// NewDecoder resolves a header line (without its terminator). An
// unknown column is an *UnknownFieldError.
func NewDecoder(header string) (*Decoder, error) {
	fields, names, err := resolveHeader(header)
	if err != nil {
		return nil, err
	}
	return newDecoder(fields, names), nil
}

// newDecoder returns a decoder over an already-resolved header, with
// its own caches: the chunked path gives each chunk one.
func newDecoder(fields []*Field, names []string) *Decoder {
	return &Decoder{
		fields:     fields,
		names:      names,
		cols:       make([][]byte, 0, len(fields)),
		strs:       NewInterner(),
		flagsCache: make(map[string][]string),
	}
}

// resolveHeader maps one raw header line to its field accessors in
// column order.
func resolveHeader(line string) ([]*Field, []string, error) {
	names := strings.Split(strings.TrimSpace(line), Separator)
	fields := make([]*Field, len(names))
	for i, name := range names {
		f, ok := fieldIndex[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, nil, &UnknownFieldError{Name: name}
		}
		fields[i] = f
	}
	return fields, names, nil
}

// Fields returns the header's field names in column order. The slice is
// owned by the decoder; callers must not modify it.
func (d *Decoder) Fields() []string { return d.names }

// Row returns the raw columns of the row Decode most recently decoded.
// The backing storage aliases that line and is reused by the following
// Decode call.
func (d *Decoder) Row() [][]byte { return d.cols }

// Decode decodes one data line (terminator and any "\r" already
// stripped; callers skip blank lines). A column-count mismatch or a
// cell its field rejects is an error, with the same text DecodeRecord
// gives. The returned record is decoder scratch, valid until the next
// call; Retain makes a copy to keep.
func (d *Decoder) Decode(line []byte) (*Record, error) {
	d.cols = SplitFieldsBytes(d.cols[:0], line)
	if len(d.cols) != len(d.fields) {
		return nil, fmt.Errorf("slurm: %d columns, want %d", len(d.cols), len(d.fields))
	}
	d.rec = Record{}
	for i, f := range d.fields {
		if err := d.setField(f, d.cols[i]); err != nil {
			return nil, fmt.Errorf("slurm: field %s: %w", d.names[i], err)
		}
	}
	return &d.rec, nil
}

// setField routes one cell to its decoder: the byte fast path when the
// field has one, the cached-split path for Flags, and Set over an
// interned copy for the free-form string columns.
func (d *Decoder) setField(f *Field, col []byte) error {
	switch {
	case f.SetBytes != nil:
		return f.SetBytes(&d.rec, col)
	case f == flagsField:
		d.rec.Flags = d.flagsFor(col)
		return nil
	default:
		return f.Set(&d.rec, d.strs.Intern(col))
	}
}

// flagsFor returns the parsed flag list for a raw Flags cell, splitting
// each distinct cell value once per decoder. Cached slices are clipped
// to their length so a consumer append (the Backfill column merging
// FlagBackfill in) reallocates instead of scribbling on the shared
// backing array.
func (d *Decoder) flagsFor(b []byte) []string {
	if fl, ok := d.flagsCache[string(b)]; ok { // no alloc: map lookup on []byte key
		return fl
	}
	var tmp Record
	tmp.setFlags(string(b))
	fl := tmp.Flags
	if fl != nil {
		fl = fl[:len(fl):len(fl)]
	}
	if len(d.flagsCache) < internCap {
		d.flagsCache[string(b)] = fl
	}
	return fl
}

// Retain copies a decoded record out of decoder scratch for callers
// that keep it (stores, ingest batches). The copy carries the non-nil
// TRES maps DecodeRecord gives: the byte path leaves an empty or absent
// TRES column nil, which renders identically in text but encodes
// differently in the columnar store.
func Retain(rec *Record) Record {
	r := *rec
	if r.TRESReq == nil {
		r.TRESReq = TRES{}
	}
	if r.TRESUsageInAve == nil {
		r.TRESUsageInAve = TRES{}
	}
	return r
}
