package slurm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrace materialises a trace body (header + rows) to a temp file.
func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildTrace renders n data rows, replacing the rows at malformed
// indices with an undecodable cell.
func buildTrace(rng *rand.Rand, n int, malformed map[int]bool) string {
	var sb strings.Builder
	sb.WriteString("JobID|User|State|Elapsed|NNodes\n")
	users := []string{"alice", "bob", "carol", "dave"}
	for i := 0; i < n; i++ {
		if malformed[i] {
			fmt.Fprintf(&sb, "%d|%s|COMPLETED|xx:yy|1\n", 100000+i, users[i%len(users)])
			continue
		}
		fmt.Fprintf(&sb, "%d|%s|COMPLETED|%02d:%02d:00|%d\n",
			100000+i, users[i%len(users)], rng.Intn(24), rng.Intn(60), 1+rng.Intn(512))
	}
	return sb.String()
}

func TestChunkScannerPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	body := buildTrace(rng, 200, nil)
	path := writeTrace(t, body)
	data := []byte(body)
	headerEnd := strings.IndexByte(body, '\n') + 1

	for _, n := range []int{1, 2, 3, 4, 7, 16, 1000} {
		cs, err := NewChunkScanner(path, n)
		if err != nil {
			t.Fatal(err)
		}
		chunks := cs.Chunks()
		if len(chunks) == 0 || len(chunks) > n {
			t.Fatalf("n=%d: got %d chunks", n, len(chunks))
		}
		// Chunks tile the data region exactly, in order.
		off := int64(headerEnd)
		for i, c := range chunks {
			if c.Off != off {
				t.Fatalf("n=%d chunk %d: starts at %d, want %d", n, i, c.Off, off)
			}
			if c.Len <= 0 {
				t.Fatalf("n=%d chunk %d: empty", n, i)
			}
			// Every chunk boundary except EOF sits just past a newline.
			if end := c.Off + c.Len; end < int64(len(data)) && data[end-1] != '\n' {
				t.Fatalf("n=%d chunk %d: boundary %d not newline-aligned", n, i, end)
			}
			off = c.Off + c.Len
		}
		if off != int64(len(data)) {
			t.Fatalf("n=%d: chunks cover %d bytes, want %d", n, off, len(data))
		}
	}
}

func TestChunkScannerHeaderOnly(t *testing.T) {
	cs, err := NewChunkScanner(writeTrace(t, "JobID|User\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumChunks() != 0 {
		t.Errorf("header-only file: %d chunks, want 0", cs.NumChunks())
	}
	n := 0
	for range cs.All(4) {
		n++
	}
	if n != 0 {
		t.Errorf("header-only file yielded %d events", n)
	}
	if _, err := NewChunkScanner(writeTrace(t, ""), 2); err == nil {
		t.Error("empty file: want header error")
	}
	if _, err := NewChunkScanner(writeTrace(t, "JobID|Mystery\nx|y\n"), 2); err == nil {
		t.Error("unknown header field: want error")
	}
}

// TestChunkScannerAllMatchesSequential is the ordering property test:
// for randomized row counts, malformed-row placements, chunk counts,
// and worker counts, the parallel merged stream must yield the same
// events in the same order as the string reference decoder applied
// line by line.
func TestChunkScannerAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		rows := 1 + rng.Intn(120)
		malformed := map[int]bool{}
		for i := 0; i < rows/10; i++ {
			malformed[rng.Intn(rows)] = true
		}
		body := buildTrace(rng, rows, malformed)
		path := writeTrace(t, body)
		nchunks := 1 + rng.Intn(7)
		workers := 1 + rng.Intn(4)

		_, want, ok := decodeLines(t, body)
		if !ok {
			t.Fatal("reference rejected the header")
		}

		cs, err := NewChunkScanner(path, nchunks)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for rec, err := range cs.All(workers) {
			if err != nil {
				if _, ok := err.(*RowError); !ok {
					t.Fatalf("terminal error: %v", err)
				}
				got = append(got, "err")
				continue
			}
			enc, eerr := EncodeRecord(rec, cs.Fields())
			if eerr != nil {
				t.Fatal(eerr)
			}
			got = append(got, enc)
		}
		// Row-error line numbers are chunk-relative past chunk 0, so
		// compare event kinds and record bytes, not error text.
		if len(want) != len(got) {
			t.Fatalf("trial %d (rows=%d chunks=%d workers=%d): %d events vs %d",
				trial, rows, nchunks, workers, len(want), len(got))
		}
		for i := range want {
			w := want[i]
			if strings.HasPrefix(w, "err: ") {
				w = "err"
			}
			if w != got[i] {
				t.Fatalf("trial %d event %d differs:\nseq:      %s\nparallel: %s", trial, i, w, got[i])
			}
		}
	}
}

func TestChunkScannerAllEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	path := writeTrace(t, buildTrace(rng, 5000, nil))
	cs, err := NewChunkScanner(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range cs.All(4) {
		if e != nil {
			t.Fatal(e)
		}
		n++
		if n == 10 {
			break // must cancel the outstanding chunk decoders cleanly
		}
	}
	if n != 10 {
		t.Errorf("broke after %d records", n)
	}
}

// FuzzChunkBoundaries feeds arbitrary trace bodies through the string
// reference decoder line by line and through the chunked merge at
// several chunk counts: the surviving records must match byte for byte
// no matter where the chunk boundaries land (including mid-row
// candidates that the planner must push to the next newline).
func FuzzChunkBoundaries(f *testing.F) {
	f.Add("JobID|User|State|Elapsed|NNodes\n100001|alice|COMPLETED|01:30:00|128\n100002|bob|FAILED|00:10:00|9.4K\n", 2)
	// Candidate boundaries landing mid-row: long rows, tiny chunks.
	f.Add("JobID|User\n1|aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\n2|b\n3|c\n", 5)
	f.Add("JobID|User\n1|a\r\n2|b\r\n3|c\r\n", 3) // CRLF rows
	f.Add("JobID|User\n1|a\n\n \n2|b", 4)         // blanks + unterminated tail
	f.Add("JobID|User\n1|a|extra\n2|b\n", 2)      // malformed row at a boundary
	f.Fuzz(func(t *testing.T, body string, nchunks int) {
		if len(body) > 1<<16 || nchunks < 1 || nchunks > 32 {
			return
		}
		_, want, ok := decodeLines(t, body)
		if !ok {
			return // both paths reject the header identically (TestChunkScannerHeaderOnly pins it)
		}
		for i, w := range want {
			if strings.HasPrefix(w, "err: ") {
				want[i] = "err" // interior chunks number lines chunk-relative
			}
		}

		path := filepath.Join(t.TempDir(), "fuzz.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := NewChunkScanner(path, nchunks)
		if err != nil {
			t.Fatalf("reference accepted header but chunk scanner failed: %v", err)
		}
		var got []string
		for rec, e := range cs.All(3) {
			if e != nil {
				if _, ok := e.(*RowError); !ok {
					t.Fatalf("chunked path hit a terminal error: %v", e)
				}
				got = append(got, "err")
				continue
			}
			enc, eerr := EncodeRecord(rec, cs.Fields())
			if eerr != nil {
				t.Fatal(eerr)
			}
			got = append(got, enc)
		}
		if len(want) != len(got) {
			t.Fatalf("chunks=%d: %d events vs %d\nbody=%q", nchunks, len(want), len(got), body)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunks=%d event %d:\nreference: %s\nparallel:  %s\nbody=%q",
					nchunks, i, want[i], got[i], body)
			}
		}
	})
}
