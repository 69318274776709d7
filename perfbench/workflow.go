package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/curate"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/plot"
	"slurmsight/internal/raster"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// The workflow workload runs the paper's obtain → curate → analyze →
// plot → LLM pipeline over a Frontier member and an Andes member through
// core.RunFederated. Each member's input is a pipe-text sacct dump of a
// simulated three-month trace (three monthly periods), reloaded with
// sacct.Load as set-up. Rates are cut from the profile defaults so one
// federated run takes a few seconds on a 2-core host; a 900k-row run
// takes ~20 s and 2.8 GB there. Each trace is thinned to a fixed row
// count by dropping whole jobs at random: the seed then changes the
// input's content but not its volume, which otherwise moves set-up and
// run time by ±10%.
var (
	workflowStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	workflowEnd   = time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	// workflowCorruption is the seeded share of rows the obtain stage
	// truncates, so curation has malformed rows to drop.
	workflowCorruption = 2e-4
)

type memberSpec struct {
	name       string
	system     func() *cluster.System
	profile    func() tracegen.Profile
	jobsPerDay float64
	users      int
	rows       int // job and step records kept
}

var workflowMembers = []memberSpec{
	{name: "frontier", system: cluster.Frontier, profile: tracegen.FrontierProfile, jobsPerDay: 20, users: 150, rows: 45000},
	{name: "andes", system: cluster.Andes, profile: tracegen.AndesProfile, jobsPerDay: 40, users: 150, rows: 38000},
}

// workflowMeta describes the generated dumps.
type workflowMeta struct {
	Members []memberMeta `json:"members"`
}

type memberMeta struct {
	Name string `json:"name"`
	Dump string `json:"dump"` // file name under the inputs directory
	Rows int    `json:"rows"` // job and step records in the window
	Jobs int    `json:"jobs"`
}

func generateWorkflow(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var meta workflowMeta
	for i, m := range workflowMembers {
		p := m.profile()
		p.JobsPerDay, p.Users = m.jobsPerDay, m.users
		memberSeed := seed*int64(len(workflowMembers)) + int64(i)
		full, err := simulate(m.system(), p, workflowStart, workflowEnd, memberSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		all, err := full.Select(sacct.Query{IncludeSteps: true})
		if err != nil {
			return err
		}
		recs, err := sampleJobs(all, m.rows, memberSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		store, err := storeOf(recs)
		if err != nil {
			return err
		}
		dump := m.name + ".txt"
		if err := store.DumpFile(filepath.Join(dir, dump)); err != nil {
			return err
		}
		jobs := 0
		for i := range recs {
			if !recs[i].IsStep() {
				jobs++
			}
		}
		meta.Members = append(meta.Members, memberMeta{Name: m.name, Dump: dump, Rows: len(recs), Jobs: jobs})
	}
	return writeJSON(filepath.Join(dir, "meta.json"), meta)
}

// simulate generates a request trace, schedules it and returns the
// accounting store of the result, steps included.
func simulate(sys *cluster.System, p tracegen.Profile, start, end time.Time, seed int64) (*sacct.Store, error) {
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: end}}, seed)
	if err != nil {
		return nil, err
	}
	cfg := sched.DefaultConfig(sys)
	cfg.Seed = seed
	sim, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		return nil, err
	}
	return storeOf(append(res.Jobs, res.Steps...))
}

func storeOf(recs []slurm.Record) (*sacct.Store, error) {
	st := sacct.NewStore()
	if err := st.Add(recs...); err != nil {
		return nil, err
	}
	st.Finalize()
	return st, nil
}

// sampleJobs keeps whole jobs, steps included, drawn in a seeded random
// order until at least n records are kept, and returns them in their
// original order. Thinning by job keeps the trace's time span.
func sampleJobs(recs []slurm.Record, n int, seed int64) ([]slurm.Record, error) {
	if len(recs) < n {
		return nil, fmt.Errorf("the trace has %d rows, fewer than %d", len(recs), n)
	}
	size := map[slurm.JobID]int{}
	var jobs []slurm.JobID
	for i := range recs {
		k := recs[i].ID.Base()
		if size[k] == 0 {
			jobs = append(jobs, k)
		}
		size[k]++
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	keep := map[slurm.JobID]bool{}
	for kept := 0; kept < n; jobs = jobs[1:] {
		keep[jobs[0]] = true
		kept += size[jobs[0]]
	}
	var out []slurm.Record
	for i := range recs {
		if keep[recs[i].ID.Base()] {
			out = append(out, recs[i])
		}
	}
	return out, nil
}

// instantEnd moves a cut at i forward past every record sharing the
// submit instant of record i-1.
func instantEnd(recs []slurm.Record, i int) int {
	for i < len(recs) && recs[i].Submit.Equal(recs[i-1].Submit) {
		i++
	}
	return i
}

// loadedMember is one member's reloaded store.
type loadedMember struct {
	memberMeta
	store *sacct.Store
	sys   *cluster.System
}

// loadWorkflowStores is the workflow's set-up: every member's text dump
// through sacct.Load.
func loadWorkflowStores(e *env, meta workflowMeta) ([]loadedMember, error) {
	out := make([]loadedMember, len(meta.Members))
	for i, m := range meta.Members {
		st, malformed, err := sacct.LoadFile(filepath.Join(e.inputs, m.Dump))
		if err != nil {
			return nil, err
		}
		if malformed != 0 {
			return nil, fmt.Errorf("%s: clean dump reloaded with %d malformed rows", m.Name, malformed)
		}
		out[i] = loadedMember{memberMeta: m, store: st, sys: workflowMembers[i].system()}
	}
	return out, nil
}

func federatedMembers(ms []loadedMember, client *llm.Client, seed int64, tr *obs.Tracer, reg *obs.Registry) []core.Member {
	out := make([]core.Member, len(ms))
	for i, m := range ms {
		out[i] = core.Member{Config: core.Config{
			SystemName:      m.Name,
			Store:           m.store,
			Granularity:     sacct.Monthly,
			Start:           workflowStart,
			End:             workflowEnd,
			EnableAI:        true,
			LLM:             client,
			ExtendedFigures: true,
			SystemNodes:     m.sys.Nodes,
			CorruptionRate:  workflowCorruption,
			CorruptionSeed:  seed,
			Tracer:          tr,
			Metrics:         reg,
		}}
	}
	return out
}

// workflowRep is one measured core.RunFederated call.
type workflowRep struct {
	wall   time.Duration
	tasks  map[string]float64 // dataflow task durations by member/task, ms
	digest string
}

func runFederatedOnce(ctx context.Context, dir string, members []core.Member) (*core.FederatedArtifacts, time.Duration, error) {
	t0 := time.Now()
	fed, err := core.RunFederated(ctx, dir, members)
	return fed, time.Since(t0), err
}

func runWorkflow(e *env) (*result, error) {
	var meta workflowMeta
	if err := readJSON(filepath.Join(e.inputs, "meta.json"), &meta); err != nil {
		return nil, err
	}
	res := newResult()

	// Set-up reloads every dump. It runs once before the first rep and
	// again after every second rep, so its samples spread over the run
	// like the reps' do; the median is setup_s.
	var setups []float64
	var members []loadedMember
	setup := func() error {
		members = nil
		runtime.GC()
		t0 := time.Now()
		ms, err := loadWorkflowStores(e, meta)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		members = ms
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	analyst, err := startLoopback(llmServer().Handler())
	if err != nil {
		return nil, err
	}
	defer analyst.close()
	client := llm.NewClient(analyst.url, "")
	ctx := context.Background()

	if e.trace {
		return traceWorkflow(e, res, members, client, median(setups))
	}

	var reps []workflowRep
	var peaks []float64
	start := time.Now()
	for i := 0; len(reps) < 3 || time.Since(start) < e.seconds; i++ {
		dir := filepath.Join(e.scratch, fmt.Sprintf("rep-%d", i))
		beginRep()
		fed, wall, err := runFederatedOnce(ctx, dir, federatedMembers(members, client, e.seed, nil, nil))
		res.attempted++
		if err != nil {
			res.failed++
			res.check(false, "rep %d: %v", i, err)
			return res, nil
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		rep := workflowRep{wall: wall, tasks: map[string]float64{}}
		for name, art := range fed.Members {
			for _, t := range art.Trace.Tasks {
				rep.tasks[name+"/"+t.Name] = ms(t.End.Sub(t.Start))
				res.attempted++
				if t.Err != nil || t.Skipped {
					res.failed++
				}
			}
		}
		checkWorkflowArtifacts(res, members, fed)
		rep.digest, err = digestWorkflow(dir, fed)
		if err != nil {
			return nil, err
		}
		e.refs.check(res, 0, rep.digest, "workflow outputs")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		if i%2 == 1 {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}

	// op_ms is the mean over dataflow tasks of each task's median
	// duration. Task times cluster (milliseconds for a figure, hundreds
	// for a curation), so a median over tasks jumps between the clusters
	// from run to run; a geometric mean weighs the many short tasks, whose
	// times are mostly waits for a core, as much as the long ones, and
	// swung by up to 27% between runs. The mean weighs each task by its
	// cost.
	var walls, slowest []float64
	byTask := map[string][]float64{}
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		var durs []float64
		for name, d := range r.tasks {
			durs = append(durs, d)
			byTask[name] = append(byTask[name], d)
		}
		slowest = append(slowest, slices.Max(durs))
	}
	var tasks []float64
	for _, ds := range byTask {
		tasks = append(tasks, median(ds))
	}
	e.printf("samples setup_s %v", rounded(setups))
	e.printf("samples run_s %v", rounded(walls))
	e.printf("samples peak_rss_mb %v", rounded(peaks))
	res.metrics["setup_s"] = median(setups)
	res.metrics["run_s"] = median(walls)
	res.metrics["op_ms"] = mean(tasks)
	res.metrics["peak_rss_mb"] = median(peaks)
	rows := 0
	for _, m := range members {
		rows += m.Rows
	}
	e.printf("workflow: %d reps, %d members, %d input rows, %d tasks/rep, digest %s",
		len(reps), len(members), rows, len(reps[0].tasks), reps[0].digest[:16])
	e.printf("workflow_s (median core.RunFederated) = %.4f s; slowest task %.4f ms (median over reps); failed_frac = %.4g",
		median(walls), median(slowest), float64(res.failed)/float64(res.attempted))
	return res, nil
}

// checkWorkflowArtifacts holds each member's curation counts to the
// generator's own row counts: every row in the window reaches curation,
// and every row is kept or dropped as malformed.
func checkWorkflowArtifacts(res *result, members []loadedMember, fed *core.FederatedArtifacts) {
	for _, m := range members {
		art, ok := fed.Members[m.Name]
		if !ok {
			res.check(false, "member %s missing from the federated artifacts", m.Name)
			continue
		}
		c := art.Curation
		res.check(c.Total == m.Rows, "%s: curation saw %d rows, the trace has %d", m.Name, c.Total, m.Rows)
		res.check(c.Kept+c.Malformed == c.Total, "%s: kept %d + malformed %d != total %d", m.Name, c.Kept, c.Malformed, c.Total)
		res.check(art.Records == c.Kept, "%s: %d records analysed, %d kept", m.Name, art.Records, c.Kept)
		res.check(art.Jobs <= m.Jobs && art.Jobs >= m.Jobs-c.Malformed,
			"%s: %d jobs analysed, trace has %d with %d malformed rows", m.Name, art.Jobs, m.Jobs, c.Malformed)
	}
	res.check(fed.Comparison != nil && fed.ComparePath != "", "federated comparison or its LLM reading is missing")
}

// digestWorkflow hashes every deterministic output of a federated run:
// figure specs, CSV sidecars, insights, facts and the federated
// comparison. The dataflow trace, DOT status and dashboards carry
// wall-clock times or paths and are left out.
func digestWorkflow(dir string, fed *core.FederatedArtifacts) (string, error) {
	d := newDigest()
	cmp, err := json.Marshal(fed.Comparison)
	if err != nil {
		return "", err
	}
	d.add("comparison.json", cmp)
	var files []string
	for _, pattern := range []string{
		"*/*.json", "*/slurm-*.csv", "*/*.md", "federated-comparison.html", "federated-compare.md",
	} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return "", err
		}
		files = append(files, m...)
	}
	for _, f := range files {
		if filepath.Base(f) == "workflow-trace.json" {
			continue
		}
		if err := d.addFile(dir, f); err != nil {
			return "", err
		}
	}
	return d.sum(), nil
}

// llmServer is the in-process analyst with its rate limit off.
func llmServer() *llm.Server {
	s := llm.NewServer()
	s.RatePerSec = 0
	return s
}

// traceWorkflow is the traced run: two untraced federated runs for the
// overhead baseline, one run with the tracer and registry on, and then
// each layer's public entry points called one after another over the
// same inputs, timed call by call.
func traceWorkflow(e *env, res *result, members []loadedMember, client *llm.Client, setup float64) (*result, error) {
	ctx := context.Background()
	var untraced []float64
	for i := range 2 {
		_, wall, err := runFederatedOnce(ctx, filepath.Join(e.scratch, fmt.Sprintf("untraced-%d", i)),
			federatedMembers(members, client, e.seed, nil, nil))
		res.attempted++
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, wall.Seconds())
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	client.Metrics = reg
	dir := filepath.Join(e.scratch, "traced")
	fed, wall, err := runFederatedOnce(ctx, dir, federatedMembers(members, client, e.seed, tr, reg))
	client.Metrics = nil
	res.attempted++
	if err != nil {
		return nil, err
	}
	checkWorkflowArtifacts(res, members, fed)
	digest, err := digestWorkflow(dir, fed)
	if err != nil {
		return nil, err
	}
	e.refs.check(res, 0, digest, "workflow outputs")
	traced := wall.Seconds()
	for _, art := range fed.Members {
		for _, t := range art.Trace.Tasks {
			res.metrics["dataflow.slowest_task_ms"] = max(res.metrics["dataflow.slowest_task_ms"], ms(t.End.Sub(t.Start)))
		}
	}

	l := newLayerTimer()
	var fedJobs [][]slurm.Record
	var fedBackfill []*plot.Chart
	for _, m := range members {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.time("sacct.load_s", func() error {
			_, _, err := sacct.LoadFile(filepath.Join(e.inputs, m.Dump))
			return err
		})
		runtime.ReadMemStats(&after)
		res.metrics["sacct.load_allocs_per_row"] += float64(after.Mallocs-before.Mallocs) / float64(m.Rows) / float64(len(members))

		cache := filepath.Join(e.scratch, "layers", m.Name)
		spec := sacct.FetchSpec{
			Granularity: sacct.Monthly, Start: workflowStart, End: workflowEnd,
			CorruptionRate: workflowCorruption, CorruptionSeed: e.seed,
		}
		var files []sacct.FetchedFile
		l.time("sacct.fetch_s", func() error {
			var err error
			files, err = (&sacct.Fetcher{Store: m.store, CacheDir: cache, Workers: 4}).Fetch(ctx, spec)
			return err
		})
		for _, f := range files {
			l.time("slurm.decode_s", func() error { return decodePass(f.Path) })
		}
		var bundles []*analyze.Bundle
		var rep curate.Report
		for _, f := range files {
			opts := curate.DefaultOptions()
			opts.Workers = runtime.GOMAXPROCS(0)
			shards := analyze.NewShardSet(core.TimelineBucket)
			l.time("curate.stream_s", func() error {
				_, err := curate.StreamFileParallel(f.Path, f.Path+".csv", opts, &rep, func(chunk int) func(*slurm.Record) bool {
					sb := shards.Shard(chunk)
					return func(r *slurm.Record) bool { sb.Observe(r); return true }
				})
				return err
			})
			b := analyze.NewBundle(core.TimelineBucket)
			l.time("analyze.merge_s", func() error { shards.MergeIntoN(b, opts.Workers); return nil })
			bundles = append(bundles, b)
		}
		res.check(rep.Total == m.Rows, "%s: layer curation saw %d rows, the trace has %d", m.Name, rep.Total, m.Rows)
		var merged *analyze.Bundle
		l.time("analyze.merge_s", func() error {
			merged = analyze.TreeMerge(core.TimelineBucket, bundles, runtime.GOMAXPROCS(0))
			merged.Timeline.Result()
			return nil
		})

		keys := append(core.FigureKeys(), core.ExtendedFigureKeys()...)
		charts := map[string]*plot.Chart{}
		for _, key := range keys {
			l.time("core.chart_s", func() error {
				c, err := core.ChartFromBundle(key, m.Name, merged, 50, m.sys.Nodes)
				charts[key] = c
				return err
			})
			l.time("plot.render_s", func() error { return renderChart(charts[key]) })
		}
		// The AI stage: every figure but the volume bars, then the
		// month-over-month wait comparison of the window's two halves.
		for _, key := range keys {
			if key == core.FigVolume {
				continue
			}
			l.analyze(client, llm.InsightPrompt, charts[key])
		}
		early, late := splitWaits(merged.Waits.Result())
		l.analyze(client, llm.ComparePrompt,
			core.WaitChartPoints(m.Name+" (first half)", early), core.WaitChartPoints(m.Name+" (second half)", late))

		var jobs []slurm.Record
		l.time("analyze.compare_s", func() error {
			var err error
			jobs, err = m.store.Select(sacct.Query{Start: workflowStart, End: workflowEnd})
			return err
		})
		fedJobs = append(fedJobs, jobs)
		fedBackfill = append(fedBackfill, core.BackfillChart(m.Name, jobs))
	}
	var cmp analyze.SystemComparison
	l.time("analyze.compare_s", func() error {
		cmp = analyze.CompareSystems(members[0].Name, fedJobs[0], members[1].Name, fedJobs[1])
		return nil
	})
	var cmpChart *plot.Chart
	l.time("core.chart_s", func() error { cmpChart = core.ComparisonChart(&cmp); return nil })
	l.time("plot.render_s", func() error { return renderChart(cmpChart) })
	l.analyze(client, llm.ComparePrompt, fedBackfill...)
	if l.err != nil {
		return nil, l.err
	}

	for name, v := range l.total {
		res.metrics[name] = v.Seconds()
	}
	layers := l.sum("sacct.load_s")
	res.metrics["curate.rows_kept"] = float64(reg.Counter("curate_rows_kept_total").Value())
	res.metrics["curate.rows_malformed"] = float64(reg.Counter("curate_rows_dropped_total").Value())
	res.metrics["llm.requests"] = float64(reg.Counter("llm_requests_total").Value())
	res.metrics["dataflow.gap_s"] = traced - layers.Seconds()
	res.metrics["workflow.trace_overhead"] = traced/median(untraced) - 1
	res.check(len(tr.Snapshot()) > 0, "the traced run recorded no spans")
	e.printf("reconcile workflow: layers %.4f s + gap %.4f s = traced workflow_s %.4f s; untraced median %.4f s, tracing overhead %+.2f%%; setup_s %.4f s (sacct.load_s %.4f s re-timed)",
		layers.Seconds(), traced-layers.Seconds(), traced, median(untraced), 100*(traced/median(untraced)-1), setup, l.total["sacct.load_s"].Seconds())
	return res, nil
}

// decodePass is one ByteRecordReader pass over a period file; malformed
// rows are skipped as the curate stage skips them.
func decodePass(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := slurm.NewByteRecordReader(f)
	if err != nil {
		return err
	}
	for {
		_, err := br.Next()
		var rowErr *slurm.RowError
		switch {
		case err == io.EOF:
			return nil
		case errors.As(err, &rowErr):
		case err != nil:
			return err
		}
	}
}

func renderChart(c *plot.Chart) error {
	if _, err := plot.HTML(c, 960, 540); err != nil {
		return err
	}
	_, err := c.JSON()
	return err
}

// splitWaits halves the wait points at the middle submission, as the
// workflow's month-over-month comparison does.
func splitWaits(points []analyze.WaitPoint) (early, late []analyze.WaitPoint) {
	if len(points) == 0 {
		return nil, nil
	}
	mid := points[len(points)/2].Submit
	for _, p := range points {
		if p.Submit.Before(mid) {
			early = append(early, p)
		} else {
			late = append(late, p)
		}
	}
	return early, late
}

// layerTimer sums wall time per layer metric; the first error sticks.
type layerTimer struct {
	total map[string]time.Duration
	err   error
}

func newLayerTimer() *layerTimer { return &layerTimer{total: map[string]time.Duration{}} }

func (l *layerTimer) time(name string, f func() error) {
	if l.err != nil {
		return
	}
	t0 := time.Now()
	err := f()
	l.total[name] += time.Since(t0)
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
}

// analyze rasterises the charts (raster.png_s) and sends them to the
// analyst in one request (llm.analyze_s).
func (l *layerTimer) analyze(client *llm.Client, prompt string, charts ...*plot.Chart) {
	imgs := make([]llm.Image, len(charts))
	for i, c := range charts {
		var png []byte
		l.time("raster.png_s", func() error {
			var err error
			png, err = raster.PNG(c, 960, 540)
			return err
		})
		l.time("llm.analyze_s", func() error {
			var err error
			imgs[i], err = llm.EncodeImage(fmt.Sprintf("chart-%d", i), png, c)
			return err
		})
	}
	l.time("llm.analyze_s", func() error {
		_, err := client.Analyze(context.Background(), prompt, imgs...)
		return err
	})
}

// sum totals every layer except the named ones.
func (l *layerTimer) sum(except ...string) time.Duration {
	var t time.Duration
	for name, d := range l.total {
		if !slices.Contains(except, name) {
			t += d
		}
	}
	return t
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
