package curate

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
)

// buildPeriod writes a pipe trace of n rows, sprinkling malformed rows
// at a deterministic random set of positions, and returns its path.
func buildPeriod(t *testing.T, rng *rand.Rand, n int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("JobID|User|State|Elapsed|Timelimit|NNodes\n")
	users := []string{"alice", "bob", "carol", "dave", "eve"}
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0: // truncated mid-record
			fmt.Fprintf(&sb, "%d|%s|COMPLE\n", 100000+i, users[i%len(users)])
		case 1: // bad duration
			fmt.Fprintf(&sb, "%d|%s|COMPLETED|xx:yy:zz|01:00:00|4\n", 100000+i, users[i%len(users)])
		default:
			fmt.Fprintf(&sb, "%d|%s|COMPLETED|%02d:%02d:00|0%d:00:00|%d\n",
				100000+i, users[i%len(users)], rng.Intn(24), rng.Intn(60), 1+rng.Intn(9), 1+rng.Intn(512))
		}
	}
	path := filepath.Join(t.TempDir(), "period.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamFileParallelMatchesSequential is the parity property: for
// every worker count the chunked path must produce the same records in
// the same order, an equal Report, and a byte-identical CSV sidecar to
// the one-worker pass, which decodes the whole file as one chunk.
func TestStreamFileParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := buildPeriod(t, rng, 400)
	dir := t.TempDir()

	seqCSV := filepath.Join(dir, "seq.csv")
	recs, seqRep, err := curateOne(in, seqCSV, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var seqRecs []string
	fields := slurm.SelectedNames()
	for i := range recs {
		enc, eerr := slurm.EncodeRecord(&recs[i], fields)
		if eerr != nil {
			t.Fatal(eerr)
		}
		seqRecs = append(seqRecs, enc)
	}
	seqBytes, err := os.ReadFile(seqCSV)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		parCSV := filepath.Join(dir, fmt.Sprintf("par%d.csv", workers))
		opts := DefaultOptions()
		opts.Workers = workers
		reg := obs.NewRegistry()
		opts.Metrics = reg
		var rep Report
		perChunk := make([][]string, workers) // chunk indices are unique and < workers
		chunks, err := StreamFileParallel(in, parCSV, opts, &rep,
			func(chunk int) func(*slurm.Record) bool {
				recs := &perChunk[chunk]
				return func(rec *slurm.Record) bool {
					enc, eerr := slurm.EncodeRecord(rec, fields)
					if eerr != nil {
						panic(eerr)
					}
					*recs = append(*recs, enc)
					return true
				}
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if chunks < 1 || chunks > workers {
			t.Errorf("workers=%d: %d chunks", workers, chunks)
		}
		if got := reg.Counter("ingest_chunks_total").Value(); got != int64(chunks) {
			t.Errorf("workers=%d: ingest_chunks_total=%d, want %d", workers, got, chunks)
		}
		if got := reg.Histogram("ingest_chunk_rows", obs.SizeBuckets).Count(); got != int64(chunks) {
			t.Errorf("workers=%d: ingest_chunk_rows count=%d, want %d", workers, got, chunks)
		}
		if rep != seqRep {
			t.Errorf("workers=%d: report %+v, sequential %+v", workers, rep, seqRep)
		}
		var parRecs []string
		for i := 0; i < chunks; i++ {
			parRecs = append(parRecs, perChunk[i]...)
		}
		if len(parRecs) != len(seqRecs) {
			t.Fatalf("workers=%d: %d records, sequential %d", workers, len(parRecs), len(seqRecs))
		}
		for i := range seqRecs {
			if parRecs[i] != seqRecs[i] {
				t.Fatalf("workers=%d record %d differs:\nseq: %s\npar: %s", workers, i, seqRecs[i], parRecs[i])
			}
		}
		parBytes, err := os.ReadFile(parCSV)
		if err != nil {
			t.Fatal(err)
		}
		if string(parBytes) != string(seqBytes) {
			t.Errorf("workers=%d: sidecar differs from sequential (%d vs %d bytes)",
				workers, len(parBytes), len(seqBytes))
		}
		// No spill files may survive.
		if leftovers, _ := filepath.Glob(parCSV + ".part*"); len(leftovers) != 0 {
			t.Errorf("workers=%d: spill files left behind: %v", workers, leftovers)
		}
	}
}

func TestStreamFileParallelEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := buildPeriod(t, rng, 300)
	opts := DefaultOptions()
	opts.Workers = 4
	var rep Report
	seen := 0
	_, err := StreamFileParallel(in, "", opts, &rep,
		func(chunk int) func(*slurm.Record) bool {
			if chunk != 0 {
				return nil
			}
			return func(*slurm.Record) bool {
				seen++
				return seen < 5 // stop the whole stream from chunk 0
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("consumer saw %d records after asking to stop at 5", seen)
	}
	// Counters reflect only the rows processed before the stop.
	if rep.Total >= 300 {
		t.Errorf("early stop still decoded every row: %+v", rep)
	}
}

func TestStreamFileParallelCreateErrorCarriesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := buildPeriod(t, rng, 10)
	badCSV := filepath.Join(t.TempDir(), "missing-dir", "out.csv")
	opts := DefaultOptions()
	opts.Workers = 2
	var rep Report
	_, err := StreamFileParallel(in, badCSV, opts, &rep, nil)
	if err == nil || !strings.Contains(err.Error(), "out.csv") {
		t.Errorf("create error lacks sidecar path: %v", err)
	}
	// One worker shares the contract.
	if _, _, err := curateOne(in, badCSV, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "out.csv") {
		t.Errorf("one-worker create error lacks sidecar path: %v", err)
	}
}

func TestStreamFileParallelTerminalError(t *testing.T) {
	// A >1MB line is a terminal decode error for the byte reader; the
	// parallel path must surface it wrapped with the input path and
	// still clean up its spills.
	dir := t.TempDir()
	in := filepath.Join(dir, "huge.txt")
	body := "JobID|User\n1|alice\n2|" + strings.Repeat("x", 1<<20+5) + "\n3|bob\n"
	if err := os.WriteFile(in, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "huge.csv")
	opts := DefaultOptions()
	opts.Workers = 3
	var rep Report
	_, err := StreamFileParallel(in, csvPath, opts, &rep, nil)
	if err == nil || !strings.Contains(err.Error(), "huge.txt") {
		t.Errorf("terminal error lacks input path: %v", err)
	}
	if leftovers, _ := filepath.Glob(csvPath + ".part*"); len(leftovers) != 0 {
		t.Errorf("spill files left behind after terminal error: %v", leftovers)
	}
}

// failWriter fails every write after the first n bytes have passed.
type failWriter struct {
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestStreamEarlyStopCountsSidecarErrors(t *testing.T) {
	// When the consumer has already stopped, a sidecar flush failure
	// cannot be returned — it must be counted, not dropped. A temp file
	// cannot be made to fail a write, so the one-worker chunk decoder
	// runs against a failing writer directly.
	cs, err := slurm.NewChunkScanner(writeInput(t, "jan.txt", sample), 1)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	var stopped atomic.Bool
	w := &failWriter{n: 0} // every underlying write fails
	stopAtOnce := func(int) func(*slurm.Record) bool {
		return func(*slurm.Record) bool { return false } // consumer abandons immediately
	}
	if err := runChunk(cs, 0, w, DefaultOptions(), &rep, stopAtOnce, &stopped, chunkMetrics{}); err != nil {
		t.Fatalf("early stop surfaced an error: %v", err)
	}
	if rep.SidecarErrors == 0 {
		t.Errorf("flush failure after early stop not counted: %+v", rep)
	}
}
