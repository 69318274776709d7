package curate

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

const sample = `JobID|User|State|Elapsed|Timelimit|NNodes
100001|alice|COMPLETED|01:30:00|02:00:00|128
100002|bob|FAILED|00:10:00|01:00:00|9.4K
100003|carol|CANCELLED|00:00:00|00:30:00|1
`

const sampleWithJunk = sample +
	"100004|dave|COMPLE\n" + // truncated mid-record
	"100005|eve|COMPLETED|xx:yy:zz|01:00:00|4\n" + // bad duration
	"100006|frank|COMPLETED|00:05:00|00:30:00|2\n"

// writeInput writes a period file body to a fresh temp file.
func writeInput(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// curateOne runs StreamFileParallel at one worker over path, retaining
// every record it yields.
func curateOne(path, csvPath string, opts Options) ([]slurm.Record, Report, error) {
	opts.Workers = 1
	var recs []slurm.Record
	var rep Report
	_, err := StreamFileParallel(path, csvPath, opts, &rep, func(int) func(*slurm.Record) bool {
		return func(rec *slurm.Record) bool {
			recs = append(recs, slurm.Retain(rec))
			return true
		}
	})
	return recs, rep, err
}

// readCSV parses a sidecar file.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestLoadRecordsClean(t *testing.T) {
	recs, rep, err := curateOne(writeInput(t, "jan.txt", sample), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 3 || rep.Kept != 3 || rep.Malformed != 0 {
		t.Errorf("report = %+v", rep)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].User != "alice" || recs[0].Elapsed != 90*time.Minute {
		t.Errorf("first record wrong: %+v", recs[0])
	}
	if recs[1].NNodes != 9400 {
		t.Errorf("K-count not parsed: %d", recs[1].NNodes)
	}
}

func TestLoadRecordsDropsMalformed(t *testing.T) {
	recs, rep, err := curateOne(writeInput(t, "jan.txt", sampleWithJunk), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 6 || rep.Kept != 4 || rep.Malformed != 2 {
		// 100004 is truncated mid-record; 100005 has a bad duration.
		t.Errorf("report = %+v", rep)
	}
	if rep.Malformed != rep.Total-rep.Kept {
		t.Errorf("inconsistent report: %+v", rep)
	}
	if len(recs) != rep.Kept {
		t.Errorf("records %d != kept %d", len(recs), rep.Kept)
	}
	frac := rep.MalformedFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("MalformedFraction = %v", frac)
	}
}

func TestLoadRecordsErrors(t *testing.T) {
	if _, _, err := curateOne(writeInput(t, "empty.txt", ""), "", Options{}); err == nil {
		t.Error("empty input: want error")
	}
	if _, _, err := curateOne(writeInput(t, "bad.txt", "JobID|Mystery\n"), "", Options{}); err == nil {
		t.Error("unknown header: want error")
	}
}

func TestToCSVNormalisation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "jan.csv")
	_, rep, err := curateOne(writeInput(t, "jan.txt", sampleWithJunk), out, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 4 || rep.Malformed != 2 {
		t.Errorf("report = %+v", rep)
	}
	rows := readCSV(t, out)
	if len(rows) != rep.Kept+1 {
		t.Fatalf("csv rows = %d", len(rows))
	}
	header := rows[0]
	if header[3] != "ElapsedMinutes" || header[4] != "TimelimitMinutes" {
		t.Errorf("header not renamed: %v", header)
	}
	// alice: 01:30:00 → 90.00 minutes.
	if rows[1][3] != "90.00" {
		t.Errorf("Elapsed minutes = %q", rows[1][3])
	}
	// bob's 9.4K nodes → 9400.
	if rows[2][5] != "9400" {
		t.Errorf("expanded count = %q", rows[2][5])
	}
	d, err := MinutesOf(rows[1][3])
	if err != nil || d != 90*time.Minute {
		t.Errorf("MinutesOf = %v, %v", d, err)
	}
	if _, err := MinutesOf("abc"); err == nil {
		t.Error("MinutesOf(abc): want error")
	}
}

func TestToCSVWithoutNormalisation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "jan.csv")
	if _, _, err := curateOne(writeInput(t, "jan.txt", sample), out, Options{}); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, out)
	if rows[0][3] != "Elapsed" {
		t.Errorf("header renamed despite opts: %v", rows[0])
	}
	if rows[1][3] != "01:30:00" {
		t.Errorf("duration converted despite opts: %q", rows[1][3])
	}
}

func TestToCSVFileAndLoadFiles(t *testing.T) {
	dir := t.TempDir()
	in1 := writeInput(t, "jan.txt", sample)
	in2 := writeInput(t, "feb.txt", sampleWithJunk)
	outCSV := filepath.Join(dir, "jan.csv")
	_, rep, err := curateOne(in1, outCSV, DefaultOptions())
	if err != nil || rep.Kept != 3 {
		t.Fatalf("sidecar pass: %+v, %v", rep, err)
	}
	if _, err := os.Stat(outCSV); err != nil {
		t.Fatal(err)
	}
	var all []slurm.Record
	var rep2 Report
	for _, in := range []string{in1, in2} {
		recs, r, err := curateOne(in, "", Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep2.Add(r)
		all = append(all, recs...)
	}
	if rep2.Total != 9 || len(all) != rep2.Kept {
		t.Errorf("combined report = %+v with %d records", rep2, len(all))
	}
	if _, _, err := curateOne(filepath.Join(dir, "nope.txt"), "", Options{}); err == nil {
		t.Error("missing file: want error")
	}
	if _, _, err := curateOne(filepath.Join(dir, "nope.txt"), outCSV, Options{}); err == nil {
		t.Error("missing input: want error")
	}
}

func TestEmptyReportFraction(t *testing.T) {
	if (Report{}).MalformedFraction() != 0 {
		t.Error("empty report fraction should be 0")
	}
}
