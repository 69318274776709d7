package slurm

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// mirrorCorpus holds valid and adversarial inputs shared by the
// byte-vs-string parser cross-checks: every ParseXxxBytes must accept,
// reject, and value-match its string counterpart on all of them.
var mirrorCorpus = []string{
	"", " ", "  \t ", "0", "1", "-1", "+7", "007", "128", "9.4K", "2M",
	"1.5G", "9e9", "9e99", "9e99G", "1e-3K", "NaN", "NaNK", "InfG", "-InfK",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"4611686018427387904K", "4611686018427387903", "1.0000000000000002K",
	"4000M", "512Gn", "2Gc", "0n", "0c", "1T", "1.5Tc", "xyz", "12x",
	"00:00:00", "01:30:00", "1-02:03:04", "90", "05:30", "2-12",
	"2-12:30", "UNLIMITED", "INVALID", "unlimited", "1:2:3:4", "-5",
	"999999999-00:00:00", "8589934592:00:00", "1-", "-", ":", "1::2",
	"00:60:00", "23:59:61", "+1:02", "1- 2", " 01:02:03 ",
	"2024-03-01T08:00:00", "2024-02-30T08:00:00", "2024-02-29T08:00:00",
	"2023-02-29T08:00:00", "2024-13-01T08:00:00", "2024-00-10T08:00:00",
	"2024-03-01 08:00:00", "2024-3-1T8:00:00", "Unknown", "None",
	"UNKNOWN", "none", "2024-03-01T24:00:00", "2024-03-01T08:60:00",
	"12345", "12345.batch", "12345.extern", "12345.0", "7_3", "7_3.2",
	"1_", "_1", "1.", ".", "1_2_3", "1.x", "0.batch", "-3.batch",
	"COMPLETED", "FAILED", "CANCELLED", "CANCELLED by 1234", "cancelled",
	"Completed", "TIMEOUT", "OUT_OF_MEMORY", "NODE_FAIL", "RUNNING",
	"PENDING", "REQUEUED", "PREEMPTED", "SUSPENDED", "BOOT_FAIL",
	"DEADLINE", "NOT_A_STATE", " COMPLETED ",
	"0:0", "1:9", "0:15", "271:0", "2:", ":9", "1:2:3", "9999999999999:0",
}

func TestParseBytesMirrorsString(t *testing.T) {
	type pair struct {
		name string
		cmp  func(s string) (string, bool) // renders value+ok for both paths
	}
	pairs := []pair{
		{"count", func(s string) (string, bool) {
			sv, serr := ParseCount(s)
			bv, berr := ParseCountBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && sv != bv) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
		{"memory", func(s string) (string, bool) {
			sv, sp, serr := ParseMemory(s)
			bv, bp, berr := ParseMemoryBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && (sv != bv || sp != bp)) {
				return fmt.Sprintf("string=(%v,%v,%v) bytes=(%v,%v,%v)", sv, sp, serr, bv, bp, berr), false
			}
			return "", true
		}},
		{"duration", func(s string) (string, bool) {
			sv, serr := ParseDuration(s)
			bv, berr := ParseDurationBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && sv != bv) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
		{"time", func(s string) (string, bool) {
			sv, serr := ParseTime(s)
			bv, berr := ParseTimeBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && !sv.Equal(bv)) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
		{"jobid", func(s string) (string, bool) {
			sv, serr := ParseJobID(s)
			bv, berr := ParseJobIDBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && sv != bv) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
		{"state", func(s string) (string, bool) {
			sv, serr := ParseState(s)
			bv, berr := ParseStateBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && sv != bv) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
		{"exitcode", func(s string) (string, bool) {
			se, ss, serr := ParseExitCode(s)
			be, bs, berr := ParseExitCodeBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && (se != be || ss != bs)) {
				return fmt.Sprintf("string=(%v,%v,%v) bytes=(%v,%v,%v)", se, ss, serr, be, bs, berr), false
			}
			return "", true
		}},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			for _, in := range mirrorCorpus {
				if diag, ok := p.cmp(in); !ok {
					t.Errorf("%s(%q): byte/string mismatch: %s", p.name, in, diag)
				}
			}
		})
	}
}

func TestSplitFieldsBytes(t *testing.T) {
	buf := make([][]byte, 0, 4)
	got := SplitFieldsBytes(buf, []byte("a|b||c"))
	if len(got) != 4 || string(got[0]) != "a" || string(got[2]) != "" || string(got[3]) != "c" {
		t.Errorf("SplitFieldsBytes = %q", got)
	}
	if got = SplitFieldsBytes(got[:0], []byte("solo")); len(got) != 1 || string(got[0]) != "solo" {
		t.Errorf("SplitFieldsBytes single = %q", got)
	}
}

// renderSeq drains a record stream and renders each yielded event to a
// comparable line: the re-encoded record for clean rows, the error text
// for row errors.
func renderSeq(t *testing.T, seq RecordSeq, fields []string) []string {
	t.Helper()
	var out []string
	for rec, err := range seq {
		if err != nil {
			if _, ok := err.(*RowError); !ok {
				t.Fatalf("terminal error: %v", err)
			}
			out = append(out, "err: "+err.Error())
			continue
		}
		enc, eerr := EncodeRecord(rec, fields)
		if eerr != nil {
			t.Fatalf("re-encode: %v", eerr)
		}
		out = append(out, enc)
	}
	return out
}

// TestByteRecordReaderMatchesDecodeRecord checks the byte reader
// against the string reference decoder applied line by line: the same
// records, the same malformed rows, the same RowError text and lines.
func TestByteRecordReaderMatchesDecodeRecord(t *testing.T) {
	input := streamSampleJunk +
		"100007_3.2|gina|CANCELLED by 99|1-00:30:00|3\n" +
		"100008.batch|hank|OUT_OF_MEMORY|00:00:09|1\r\n" +
		"   \n" +
		"100009|alice|COMPLETED|05:30|9.4K" // no trailing newline
	fields, want, ok := decodeLines(t, input)
	if !ok {
		t.Fatal("reference rejected the header")
	}
	br, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(fields, "|") != strings.Join(br.Fields(), "|") {
		t.Fatalf("headers differ: %v vs %v", fields, br.Fields())
	}
	got := renderSeq(t, br.All(), br.Fields())
	if len(want) != len(got) {
		t.Fatalf("event counts differ: %d vs %d\nstring: %q\nbytes: %q", len(want), len(got), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("event %d differs:\nstring: %s\nbytes:  %s", i, want[i], got[i])
		}
	}
}

// TestByteRecordReaderFullCatalogue runs the parity check over every
// curated column, including the Flags cache and interned free-form
// strings, on randomized encodable records.
func TestByteRecordReaderFullCatalogue(t *testing.T) {
	fields := SelectedNames()
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString(Header(fields))
	sb.WriteByte('\n')
	for i := 0; i < 200; i++ {
		rec := randomRecord(rng)
		line, err := EncodeRecord(rec, fields)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	input := sb.String()
	_, want, ok := decodeLines(t, input)
	if !ok {
		t.Fatal("reference rejected the header")
	}
	br, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	got := renderSeq(t, br.All(), fields)
	if len(want) != len(got) {
		t.Fatalf("event counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d differs:\nstring: %s\nbytes:  %s", i, want[i], got[i])
		}
	}
}

// TestByteRecordReaderFlagsCacheIsolated pins the clipped-cache
// property: appending to one record's cached flag slice (what the
// Backfill column does) must not leak into later rows that share the
// cache entry.
func TestByteRecordReaderFlagsCacheIsolated(t *testing.T) {
	input := "JobID|Flags|Backfill\n" +
		"1|SchedMain|1\n" +
		"2|SchedMain|0\n"
	br, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	first, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(first.Flags, ","); got != "SchedMain,SchedBackfill" {
		t.Fatalf("first flags = %q", got)
	}
	second, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(second.Flags, ","); got != "SchedMain" {
		t.Fatalf("cached flags corrupted by earlier append: %q", got)
	}
}

// TestByteRecordReaderZeroAllocs is the tentpole's allocation pin: after
// the interner warms up, decoding one row of the full curated selection
// allocates nothing.
func TestByteRecordReaderZeroAllocs(t *testing.T) {
	fields := SelectedNames()
	rec := benchRecord()
	line, err := EncodeRecord(&rec, fields)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fields))
	sb.WriteByte('\n')
	const rows = 4096
	for i := 0; i < rows; i++ {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	br, err := NewByteRecordReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // warm the interner and scratch capacities
		if _, err := br.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := br.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("decode allocates %.2f allocs/row, want 0", avg)
	}
}

// benchRecord is a representative full-width record whose cells exercise
// the typed byte parsers (timestamps, durations, counts, memory, state,
// exit code, flags) without touching a slow path.
func benchRecord() Record {
	return Record{
		ID: NewJobID(123456), JobName: "bench", User: "alice", Account: "csc000",
		Cluster: "frontier", Partition: "batch",
		Submit:  time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC),
		Start:   time.Date(2024, 3, 1, 11, 0, 0, 0, time.UTC),
		End:     time.Date(2024, 3, 1, 13, 0, 0, 0, time.UTC),
		Elapsed: 2 * time.Hour, Timelimit: 4 * time.Hour,
		NNodes: 128, NCPUs: 8192, ReqNodes: 128, ReqCPUs: 8192,
		ReqMem: 512 << 20, State: StateCompleted, ExitCode: 0,
		Flags: []string{FlagBackfill}, QOS: "normal", Priority: 100000,
		Eligible: time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC),
	}
}

func BenchmarkByteRecordReaderDecode(b *testing.B) {
	fields := SelectedNames()
	rec := benchRecord()
	line, err := EncodeRecord(&rec, fields)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fields))
	sb.WriteByte('\n')
	const rows = 64
	for i := 0; i < rows; i++ {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	input := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br, err := NewByteRecordReader(strings.NewReader(input))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := br.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
