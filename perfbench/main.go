// Command perfbench is the repository's benchmark: workloads that cover
// the paper's three uses — the federated analysis workflow, the live
// query service, and the scheduling-policy tournament — each run from a
// seed in its own process. BENCHMARK.json lists workflow and tournament;
// serve runs by hand only (README.md, "Known defect").
//
//	perfbench --workload workflow|serve|tournament --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) print the end-to-end metrics; a traced run
// (--trace 1) times each layer call and prints the per-layer metrics and
// a reconciliation line. The seed picks one of inputSets input sets,
// simulated on first use and cached per (workload, set) under
// .bench_build/perfbench, outside every timed region; each set's output
// digests are committed under reference/. --record rewrites them after
// an intended change of the outputs. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The process exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// benchDir holds cached inputs and per-run scratch, relative to the
// checkout root the benchmark runs from.
const benchDir = ".bench_build/perfbench"

// workload is one named benchmark workload.
type workload struct {
	name string
	// generate simulates the seed's inputs into dir. It runs in a child
	// process so its memory never shows in the measured peak RSS.
	generate func(dir string, seed int64) error
	// run measures the workload on the inputs in env.inputs.
	run func(env *env) (*result, error)
	// unlisted workloads are not in BENCHMARK.json: a traced run prints
	// their own layers rather than the per_layer catalog.
	unlisted bool
}

var workloads = []workload{
	{name: "workflow", generate: generateWorkflow, run: runWorkflow},
	{name: "tournament", generate: generateTournament, run: runTournament},
	// serve fails a varying few figure requests per run (README.md,
	// "Known defect"), so two runs of the same code disagree on failed.
	{name: "serve", generate: generateServe, run: runServe, unlisted: true},
}

// env is what a workload run gets from the harness.
type env struct {
	seed    int64 // the input set
	seconds time.Duration
	trace   bool
	inputs  string    // cached inputs for (workload, input set)
	scratch string    // per-run directory, removed at exit
	log     io.Writer // human-readable lines (standard output)
	refs    *references
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// result is a finished run: what was attempted, what failed, whether
// every output check held, and the metrics by name.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	checks    []string // failed output checks, for the human report
}

func newResult() *result { return &result{correct: true, metrics: map[string]float64{}} }

// check records an output check; a false ok fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name: workflow, serve or tournament")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		generate = flag.Bool("generate", false, "only simulate the seed's inputs (used by the harness's child process)")
		record   = flag.Bool("record", false, "write the run's output digests as the input set's reference under "+referenceDir)
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if *record && *trace == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --record needs an untraced run (--trace 0)\n")
		os.Exit(2)
	}
	set := inputSet(*seed)
	inputs := filepath.Join(benchDir, "inputs", fmt.Sprintf("%s-%d", w.name, set))
	if *generate {
		if err := w.generate(inputs+".tmp", set); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: generate %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}
	refs, err := loadReferences(w.name, set, *record)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	e := &env{seed: set, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, log: os.Stdout, refs: refs}
	res, err := runWorkload(w, e, inputs, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res, metricsFor(w, *trace == 1)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
	if *record {
		if err := refs.save(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: recording the reference: %v\n", err)
			os.Exit(1)
		}
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func runWorkload(w workload, e *env, inputs string, seed int64) (*result, error) {
	if err := ensureInputs(w.name, inputs, e.seed); err != nil {
		return nil, err
	}
	e.inputs = inputs
	e.scratch = filepath.Join(benchDir, "run", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)
	printHost(e, w.name, seed)
	res, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if e.trace {
		fillUnrunLayers(w.name, res.metrics)
	}
	return res, nil
}

// ensureInputs simulates the seed's inputs in a child process unless a
// complete set is already cached. The child writes into dir+".tmp",
// renamed into place only on success, so an interrupted generation never
// leaves a partial cache behind.
func ensureInputs(name, dir string, seed int64) error {
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--generate")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("generating inputs: %w", err)
	}
	return os.Rename(tmp, dir)
}

// printHost records the host shape and the run's identity.
func printHost(e *env, name string, seed int64) {
	host := map[string]any{
		"workload":   name,
		"seed":       seed,
		"input_set":  e.seed,
		"seconds":    e.seconds.Seconds(),
		"trace":      e.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"mem_total_mb": func() float64 {
			mb, _ := memTotalMB()
			return mb
		}(),
	}
	b, _ := json.Marshal(host)
	e.printf("host %s", b)
}

// metricsFor is what a run of w prints: the end-to-end metrics, or in a
// traced run the per-layer catalog (an unlisted workload's own layers).
func metricsFor(w workload, trace bool) []metricDef {
	switch {
	case !trace:
		return endToEnd
	case w.unlisted:
		return layersOf(w.name)
	}
	return perLayer
}

// printResult writes the human-readable metric lines and then the JSON
// result as the last line. Every metric in list must be present.
func printResult(w io.Writer, res *result, list []metricDef) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	var missing []string
	for _, m := range list {
		v, ok := res.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = mv{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run produced no value for %s", strings.Join(missing, ", "))
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// beginRep settles the heap, returns freed pages to the OS and resets
// the kernel's resident-set high-water mark, so that peakRSSMB read
// after a rep is that rep's own peak. Where the kernel refuses the reset
// the mark keeps running from process start.
func beginRep() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process VmHWM: the peak resident set since start or
// since the last beginRep.
func peakRSSMB() (float64, error) { return procKB("/proc/self/status", "VmHWM:") }

func memTotalMB() (float64, error) { return procKB("/proc/meminfo", "MemTotal:") }

// procKB reads a "<key> <n> kB" line from a proc file, in MB.
func procKB(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New(path + ": no " + key)
}
