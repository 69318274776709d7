package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkflowParallelIngestMatchesSequential pins the tentpole
// determinism contract end to end: a workflow run with the parallel
// chunked byte ingest plane (IngestWorkers=4) must emit figure JSON and
// CSV sidecars byte-identical to the one-worker run, which decodes each
// period file as a single chunk, with the same curation report.
func TestWorkflowParallelIngestMatchesSequential(t *testing.T) {
	seqCfg := baseConfig(t)
	seqCfg.IngestWorkers = 1 // pin the single-chunk baseline (0 = auto)
	seqArt, err := Run(context.Background(), seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := baseConfig(t)
	parCfg.IngestWorkers = 4
	parArt, err := Run(context.Background(), parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if parArt.Records != seqArt.Records || parArt.Curation != seqArt.Curation {
		t.Errorf("parallel run counted records=%d curation=%+v, sequential records=%d curation=%+v",
			parArt.Records, parArt.Curation, seqArt.Records, seqArt.Curation)
	}

	// Every CSV sidecar must be byte-identical.
	if len(parArt.CSVPaths) != len(seqArt.CSVPaths) {
		t.Fatalf("sidecar count %d vs %d", len(parArt.CSVPaths), len(seqArt.CSVPaths))
	}
	for i := range seqArt.CSVPaths {
		compareFiles(t, seqArt.CSVPaths[i], parArt.CSVPaths[i])
	}

	// Every figure spec must be byte-identical.
	for _, key := range FigureKeys() {
		sf, pf := seqArt.Figures[key], parArt.Figures[key]
		if sf == nil || pf == nil {
			t.Fatalf("figure %s missing (seq=%v par=%v)", key, sf != nil, pf != nil)
		}
		compareFiles(t, sf.SpecPath, pf.SpecPath)
	}
}

func compareFiles(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Errorf("%s differs from %s (%d vs %d bytes)",
			filepath.Base(b), filepath.Base(a), len(db), len(da))
	}
}
