package slurm

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

const streamSample = `JobID|User|State|Elapsed|NNodes
100001|alice|COMPLETED|01:30:00|128
100002|bob|FAILED|00:10:00|9.4K

100003|carol|CANCELLED|00:00:00|1
`

const streamSampleJunk = streamSample +
	"100004|dave|COMPLE\n" + // missing columns
	"100005|eve|COMPLETED|xx:yy:zz|4\n" + // bad duration
	"100006|frank|COMPLETED|00:05:00|2\n"

// decodeLines is the reference decode of a pipe-text body: the first
// line is the header, every later non-blank line goes through the
// string DecodeRecord, and each row renders as its re-encoding or, when
// rejected, as the RowError a whole-file reader reports for it. ok is
// false when the header is missing or names an unknown field.
func decodeLines(t *testing.T, body string) (fields, events []string, ok bool) {
	t.Helper()
	if body == "" {
		return nil, nil, false
	}
	lines := strings.Split(body, "\n")
	fields = strings.Split(strings.TrimSpace(strings.TrimSuffix(lines[0], "\r")), Separator)
	for _, f := range fields {
		if _, known := FieldByName(f); !known {
			return nil, nil, false
		}
	}
	for i, line := range lines[1:] {
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec, err := DecodeRecord(line, fields)
		if err != nil {
			events = append(events, "err: "+(&RowError{Line: i + 2, Err: err}).Error())
			continue
		}
		enc, err := EncodeRecord(rec, fields)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		events = append(events, enc)
	}
	return fields, events, true
}

func TestRecordReaderClean(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Fields(); len(got) != 5 || got[0] != "JobID" || got[4] != "NNodes" {
		t.Errorf("Fields = %v", got)
	}
	var users []string
	var nodes []int64
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, rec.User)
		nodes = append(nodes, rec.NNodes)
	}
	if strings.Join(users, ",") != "alice,bob,carol" {
		t.Errorf("users = %v", users)
	}
	if nodes[1] != 9400 {
		t.Errorf("K-count not expanded: %v", nodes)
	}
}

func TestRecordReaderScratchReuse(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSample))
	if err != nil {
		t.Fatal(err)
	}
	first, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.User != "alice" || first.Elapsed != 90*time.Minute {
		t.Fatalf("first = %+v", first)
	}
	row := rr.Row()
	if len(row) != 5 || string(row[1]) != "alice" {
		t.Fatalf("Row = %q", row)
	}
	second, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("scratch record not reused across Next calls")
	}
	if first.User != "bob" {
		t.Errorf("scratch not overwritten: %q", first.User)
	}
	if string(rr.Row()[1]) != "bob" {
		t.Errorf("Row scratch not overwritten: %q", rr.Row())
	}
}

func TestRecordReaderRowErrors(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSampleJunk))
	if err != nil {
		t.Fatal(err)
	}
	var kept, malformed int
	var lines []int
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		var rowErr *RowError
		if errors.As(err, &rowErr) {
			malformed++
			lines = append(lines, rowErr.Line)
			if rowErr.Error() == "" || rowErr.Unwrap() == nil {
				t.Error("RowError lacks detail")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = rec
		kept++
	}
	if kept != 4 || malformed != 2 {
		t.Errorf("kept=%d malformed=%d, want 4/2", kept, malformed)
	}
	// streamSample has a blank line before carol, so dave's truncated row
	// is input line 6 and eve's bad duration line 7.
	if len(lines) != 2 || lines[0] != 6 || lines[1] != 7 {
		t.Errorf("RowError lines = %v", lines)
	}
}

func TestRecordReaderHeaderErrors(t *testing.T) {
	if _, err := NewByteRecordReader(strings.NewReader("")); !errors.Is(err, ErrNoHeader) {
		t.Errorf("empty input: %v, want ErrNoHeader", err)
	}
	_, err := NewByteRecordReader(strings.NewReader("JobID|Mystery\n"))
	var uf *UnknownFieldError
	if !errors.As(err, &uf) || uf.Name != "Mystery" {
		t.Errorf("unknown header field: %v, want UnknownFieldError naming Mystery", err)
	}
}

// TestByteRecordReaderLineCap pins the constructor-chosen line cap: a
// line of exactly the cap decodes, one byte more is a terminal error
// naming that line, whether the line fits the read buffer or spills.
func TestByteRecordReaderLineCap(t *testing.T) {
	for _, max := range []int{64, 100 << 10} {
		head := "JobID|Comment\n1|ok\n2|"
		fits := strings.Repeat("c", max-len("2|"))
		rr, err := NewByteRecordReaderLimit(strings.NewReader(head+fits+"\n"), max)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := rr.Next(); err != nil {
				t.Fatalf("max=%d row %d: %v", max, i, err)
			}
		}
		rr, err = NewByteRecordReaderLimit(strings.NewReader(head+fits+"c\n3|x\n"), max)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rr.Next(); err != nil {
			t.Fatal(err)
		}
		_, err = rr.Next()
		if _, ok := err.(*RowError); err == nil || ok || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("max=%d: oversize row error = %v, want terminal error naming line 3", max, err)
		}
	}
}

func TestRecordSeqAllAndCollect(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSampleJunk))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	malformed := 0
	for rec, err := range rr.All() {
		if err != nil {
			if _, ok := err.(*RowError); !ok {
				t.Fatal(err)
			}
			malformed++
			continue
		}
		recs = append(recs, Retain(rec))
	}
	if len(recs) != 4 || malformed != 2 {
		t.Fatalf("collect: %d records, %d malformed", len(recs), malformed)
	}
	// Retained records must be copies, not aliases of the scratch.
	if recs[0].User == recs[1].User {
		t.Errorf("records alias each other: %+v", recs[:2])
	}
	if recs[3].User != "frank" {
		t.Errorf("last record = %+v", recs[3])
	}
	if recs[0].TRESReq == nil || recs[0].TRESUsageInAve == nil {
		t.Error("Retain left a nil TRES map where DecodeRecord gives an empty one")
	}
}

func TestRecordSeqEarlyBreak(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSample))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range rr.All() {
		if e != nil {
			t.Fatal(e)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("broke after %d records", n)
	}
}
