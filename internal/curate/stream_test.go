package curate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slurmsight/internal/slurm"
)

func TestStreamSinglePassCSVAndRecords(t *testing.T) {
	out := filepath.Join(t.TempDir(), "jan.csv")
	recs, rep, err := curateOne(writeInput(t, "jan.txt", sampleWithJunk), out, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 6 || rep.Kept != 4 || rep.Malformed != 2 {
		t.Errorf("report = %+v", rep)
	}
	var users []string
	for _, rec := range recs {
		users = append(users, rec.User)
	}
	if strings.Join(users, ",") != "alice,bob,carol,frank" {
		t.Errorf("users = %v", users)
	}
	rows := readCSV(t, out)
	if len(rows) != rep.Kept+1 {
		t.Fatalf("csv rows = %d", len(rows))
	}
	if rows[0][3] != "ElapsedMinutes" || rows[1][3] != "90.00" || rows[2][5] != "9400" {
		t.Errorf("normalisation missing: %v / %v", rows[0], rows[1])
	}
}

func TestStreamNilCSVWriter(t *testing.T) {
	recs, rep, err := curateOne(writeInput(t, "jan.txt", sample), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || rep.Kept != 3 {
		t.Errorf("n=%d rep=%+v", len(recs), rep)
	}
}

func TestStreamEarlyBreakStillFlushesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "jan.csv")
	opts := Options{Workers: 1}
	var rep Report
	_, err := StreamFileParallel(writeInput(t, "jan.txt", sample), out, opts, &rep,
		func(int) func(*slurm.Record) bool {
			return func(*slurm.Record) bool { return false } // abandon after the first record
		})
	if err != nil {
		t.Fatal(err)
	}
	// Header plus the one row that was yielded must have been flushed.
	if rows := readCSV(t, out); len(rows) != 2 {
		t.Errorf("flushed rows = %d, want 2", len(rows))
	}
}

func TestStreamHeaderError(t *testing.T) {
	recs, _, err := curateOne(writeInput(t, "bad.txt", "JobID|Mystery\n"), "", Options{})
	if len(recs) != 0 {
		t.Errorf("unexpected records %+v", recs)
	}
	if err == nil {
		t.Error("unknown header field: want terminal error")
	}
}

func TestStreamFileErrorsCarryPath(t *testing.T) {
	dir := t.TempDir()
	bad := writeInput(t, "bad-period.txt", "JobID|Mystery\n1|2\n")
	if _, _, err := curateOne(bad, "", Options{}); err == nil || !strings.Contains(err.Error(), "bad-period.txt") {
		t.Errorf("records-only error lacks path: %v", err)
	}
	if _, _, err := curateOne(bad, filepath.Join(dir, "out.csv"), Options{}); err == nil || !strings.Contains(err.Error(), "bad-period.txt") {
		t.Errorf("sidecar error lacks path: %v", err)
	}
}

func TestStreamFileOpensInputOnce(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, "jan.txt", sampleWithJunk)
	before := Stats()
	recs, rep, err := curateOne(in, filepath.Join(dir, "jan.csv"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := Stats()
	if opened := after.FilesOpened - before.FilesOpened; opened != 1 {
		t.Errorf("input opened %d times, want 1", opened)
	}
	if decoded := after.RowsDecoded - before.RowsDecoded; decoded != 6 {
		t.Errorf("rows decoded = %d, want 6 (one pass over kept+malformed)", decoded)
	}
	if len(recs) != 4 || rep.Kept != 4 {
		t.Errorf("n=%d rep=%+v", len(recs), rep)
	}
	// The CSV sidecar must exist from the same pass.
	data, err := os.ReadFile(filepath.Join(dir, "jan.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ElapsedMinutes") {
		t.Error("sidecar missing normalised header")
	}
}
