package slurm

import (
	"fmt"
	"strings"
)

// Separator is the column separator sacct uses with --parsable2.
const Separator = "|"

// Header renders the pipe-separated header line for a field selection.
func Header(fields []string) string { return strings.Join(fields, Separator) }

// EncodeRecord renders the named fields of r as one pipe-separated line.
// Field names are resolved case-insensitively; unknown names are an error.
// Values containing the separator are emitted as-is (sacct does the same);
// the curation stage downstream treats such rows as malformed.
func EncodeRecord(r *Record, fields []string) (string, error) {
	parts := make([]string, len(fields))
	for i, name := range fields {
		f, ok := FieldByName(name)
		if !ok {
			return "", fmt.Errorf("slurm: unknown field %q", name)
		}
		parts[i] = f.Get(r)
	}
	return strings.Join(parts, Separator), nil
}

// DecodeRecord is the string reference decoder: it parses one
// pipe-separated line into a fresh Record through the string Field.Set
// parsers, resolving every field name again on each call. A
// column-count mismatch or any per-field parse failure is an error.
// Ingest paths decode through Decoder instead; DecodeRecord is the
// independent reference the byte decoder and its fuzz targets are
// checked against.
func DecodeRecord(line string, fields []string) (*Record, error) {
	parts := strings.Split(line, Separator)
	if len(parts) != len(fields) {
		return nil, fmt.Errorf("slurm: %d columns, want %d", len(parts), len(fields))
	}
	r := &Record{TRESReq: TRES{}, TRESUsageInAve: TRES{}}
	for i, name := range fields {
		f, ok := FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("slurm: unknown field %q", name)
		}
		if err := f.Set(r, parts[i]); err != nil {
			return nil, fmt.Errorf("slurm: field %s: %w", name, err)
		}
	}
	return r, nil
}
