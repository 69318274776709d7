package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"slurmsight/internal/analyze"
	"slurmsight/internal/core"
)

// writeRun lays out the files a federated run leaves behind, writing
// them in the given order.
func writeRun(t *testing.T, dir string, files map[string]string, order []string) {
	t.Helper()
	for _, name := range order {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(files[name]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkflowDigestIsStableAcrossRuns(t *testing.T) {
	files := map[string]string{
		"frontier/fig-waits.json":       `{"title":"w"}`,
		"frontier/slurm-2024-01.csv":    "a,b\n1,2\n",
		"frontier/fig-waits.insight.md": "# insight\n",
		"frontier/workflow-trace.json":  `{"wall_ms": 12}`,
		"andes/facts.json":              `{"jobs": 3}`,
		"federated-comparison.html":     "<html></html>",
		"federated-compare.md":          "# compare\n",
		"frontier/workflow-status.dot":  "digraph { a [label=\"3ms\"] }",
		"federated.html":                "<html>index</html>",
	}
	var order []string
	for name := range files {
		order = append(order, name)
	}
	fed := &core.FederatedArtifacts{Comparison: &analyze.SystemComparison{NameA: "frontier", NameB: "andes"}}
	a, b := t.TempDir(), t.TempDir()
	writeRun(t, a, files, order)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	// A second run differs only in wall-clock artifacts.
	files["frontier/workflow-trace.json"] = `{"wall_ms": 99}`
	files["frontier/workflow-status.dot"] = "digraph { a [label=\"7ms\"] }"
	writeRun(t, b, files, order)
	da, err := digestWorkflow(a, fed)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digestWorkflow(b, fed)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("two runs with the same outputs digest differently: %s vs %s", da, db)
	}
	for _, name := range []string{"frontier/slurm-2024-01.csv", "frontier/fig-waits.insight.md", "andes/facts.json", "federated-compare.md"} {
		writeRun(t, b, map[string]string{name: files[name] + "x"}, []string{name})
		if d, err := digestWorkflow(b, fed); err != nil || d == da {
			t.Errorf("changing %s left the digest unchanged (%v)", name, err)
		}
		writeRun(t, b, files, []string{name})
	}
	fed2 := &core.FederatedArtifacts{Comparison: &analyze.SystemComparison{NameA: "frontier", NameB: "summit"}}
	if d, _ := digestWorkflow(a, fed2); d == da {
		t.Error("changing the federated comparison left the digest unchanged")
	}
}

func TestReferenceCheck(t *testing.T) {
	r := &references{workload: "x", set: 3, want: []string{"abc", "def"}}
	res := newResult()
	r.check(res, 0, "abc", "a")
	r.check(res, 1, "def", "b")
	r.check(res, 0, "abc", "a")
	if !res.correct {
		t.Fatalf("matching digests failed: %v", res.checks)
	}
	r.check(res, 1, "deg", "b")
	if res.correct || len(res.checks) != 2 || !strings.Contains(res.checks[1], "reference") {
		t.Fatalf("a digest that differs from the reference and the first rep passed: %v", res.checks)
	}
	res = newResult()
	r.check(res, 2, "ghi", "c")
	if res.correct || !strings.Contains(res.checks[0], "no committed reference") {
		t.Fatalf("a missing reference passed: %v", res.checks)
	}
	rec := &references{workload: "x", set: 3, record: true}
	res = newResult()
	rec.check(res, 0, "abc", "a")
	rec.check(res, 0, "abd", "a")
	if res.correct || rec.got[0] != "abc" {
		t.Fatalf("recording took a digest the run did not reproduce: %v, %v", res.checks, rec.got)
	}
}

// TestEveryInputSetHasAReference keeps the committed references
// complete: a seed whose input set had none would compare nothing.
func TestEveryInputSetHasAReference(t *testing.T) {
	for workload, n := range map[string]int{"workflow": 1, "tournament": tournamentTraces} {
		all, err := readReferenceFile(workload)
		if err != nil {
			t.Fatal(err)
		}
		for set := range int64(inputSets) {
			got := all[strconv.FormatInt(set, 10)]
			if len(got) != n {
				t.Errorf("%s: input set %d has %d reference digests, want %d", workload, set, len(got), n)
			}
			for _, d := range got {
				if len(d) != 64 {
					t.Errorf("%s: input set %d: digest %q is not a SHA-256", workload, set, d)
				}
			}
		}
		if len(all) != inputSets {
			t.Errorf("%s: references for %d input sets, want %d", workload, len(all), inputSets)
		}
	}
	if inputSet(-1) != inputSets-1 || inputSet(inputSets+2) != 2 {
		t.Errorf("inputSet(-1) = %d, inputSet(%d) = %d", inputSet(-1), inputSets+2, inputSet(inputSets+2))
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names, listed []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w.name)
		}
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("BENCHMARK.json workloads %v, catalog lists %v", names, listed)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			g := c.got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", c.kind, i, g, m)
			}
		}
	}
}

// TestMetricsFor checks what each kind of run prints: the end-to-end
// metrics untraced, the per_layer catalog traced, and for the unlisted
// serve workload its own layers only.
func TestMetricsFor(t *testing.T) {
	serve, ok := findWorkload("serve")
	if !ok || !serve.unlisted {
		t.Fatalf("serve: found %v, unlisted %v", ok, serve.unlisted)
	}
	for _, w := range workloads {
		if got := metricsFor(w, false); len(got) != len(endToEnd) {
			t.Errorf("%s untraced: %d metrics, want %d", w.name, len(got), len(endToEnd))
		}
	}
	wf, _ := findWorkload("workflow")
	if got := metricsFor(wf, true); len(got) != len(perLayer) {
		t.Errorf("workflow traced: %d metrics, want %d", len(got), len(perLayer))
	}
	got := metricsFor(serve, true)
	if len(got) != len(serveLayers) {
		t.Fatalf("serve traced: %d metrics, want %d", len(got), len(serveLayers))
	}
	for i, m := range got {
		if m != serveLayers[i] {
			t.Errorf("serve traced metric %d: %+v, want %+v", i, m, serveLayers[i])
		}
	}
}
