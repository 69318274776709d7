package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/serve"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// The serve workload puts the query service under an open-loop mix over
// a warmed colstore dump of the last serveRows records submitted in
// January of a simulated Frontier trace (about four weeks), then
// measures capacity on the same mix with a closed loop. Ingest batches
// continue the trace's timeline into February, so they land in a fresh
// month shard. A fixed row count keeps the seed from changing the
// store's volume.
var (
	serveStart      = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	serveMonthEnd   = time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	serveTraceEnd   = time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC)
	serveJobsPerDay = 140.0
	serveUsers      = 400
)

const (
	// offeredRate is the open loop's read arrival rate, per second: 21–23%
	// of what the closed loop completes on the same mix on a 2-core host
	// (800 ÷ run_s, medians of 3,460/s and 3,800/s over two sets of ten
	// runs), so a read seldom finds both connections busy and query_p50
	// shows service time, not queueing.
	offeredRate = 800.0
	// ingestEvery and batchRows are cmd/queryload's live-append defaults
	// (-append-every 1s, -append-rows 200).
	ingestEvery = time.Second
	batchRows   = 200
	// openShare is the share of --seconds spent in the open loop; the
	// closed loop runs a fixed request count.
	openShare = 0.4
	// serveCycles is how many turns the open loop, the closed loop and
	// extra set-ups take.
	serveCycles = 4
	// closedBatches × closedBatch reads make the closed loop; run_s is
	// the median wall time of a batch's play. A batch holds whole ingest
	// gaps, so every play starts on a fresh store generation and has the
	// same shape. Many distinct batches keep the seed's draw of costly
	// long-tail queries from moving run_s.
	closedBatches = 16
	closedBatch   = ingestGap
	// ingestGap is the closed loop's reads per ingest: the open loop's
	// ratio.
	ingestGap = int(offeredRate * ingestEvery / time.Second)
	// serveRows is the dump's size in records.
	serveRows = 130000
)

type serveMeta struct {
	Dump    string      `json:"dump"`
	Rows    int         `json:"rows"`
	Start   time.Time   `json:"start"` // midnight of the dump's first submission
	Days    int         `json:"days"`  // days from Start to the end of the month
	Users   []string    `json:"users"` // by descending job count
	Batches []batchMeta `json:"batches"`
}

// batchMeta is one ingest batch: its records' submit window and count.
type batchMeta struct {
	File  string    `json:"file"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Rows  int       `json:"rows"`
}

func generateServe(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = serveJobsPerDay, serveUsers
	full, err := simulate(cluster.Frontier(), p, serveStart, serveTraceEnd, seed)
	if err != nil {
		return err
	}
	month, err := full.Select(sacct.Query{End: serveMonthEnd, IncludeSteps: true})
	if err != nil {
		return err
	}
	tail, err := full.Select(sacct.Query{Start: serveMonthEnd, IncludeSteps: true})
	if err != nil {
		return err
	}
	if len(month) <= serveRows {
		return fmt.Errorf("the month has %d rows, not more than %d", len(month), serveRows)
	}
	base := month[instantEnd(month, len(month)-serveRows):]
	st, err := storeOf(base)
	if err != nil {
		return err
	}
	start := base[0].Submit.Truncate(24 * time.Hour)
	meta := serveMeta{
		Dump:  "base.colstore",
		Rows:  len(base),
		Start: start,
		Days:  int(serveMonthEnd.Sub(start) / (24 * time.Hour)),
		Users: usersByActivity(base),
	}
	if err := st.DumpBinaryFile(filepath.Join(dir, meta.Dump)); err != nil {
		return err
	}
	// Cut the continuation into batches of batchRows records or a few more,
	// never splitting a submit instant, so a window query on a batch's
	// [Start, End) returns exactly its records.
	fields := slurm.SelectedNames()
	for i := 0; i < len(tail); {
		j := instantEnd(tail, min(i+batchRows, len(tail)))
		end := tail[len(tail)-1].Submit.Add(time.Second)
		if j < len(tail) {
			end = tail[j].Submit
		}
		var b strings.Builder
		b.WriteString(slurm.Header(fields) + "\n")
		for k := i; k < j; k++ {
			line, err := slurm.EncodeRecord(&tail[k], fields)
			if err != nil {
				return err
			}
			b.WriteString(line + "\n")
		}
		bm := batchMeta{File: fmt.Sprintf("batch-%04d.txt", len(meta.Batches)), Start: tail[i].Submit, End: end, Rows: j - i}
		if err := os.WriteFile(filepath.Join(dir, bm.File), []byte(b.String()), 0o644); err != nil {
			return err
		}
		meta.Batches = append(meta.Batches, bm)
		i = j
	}
	return writeJSON(filepath.Join(dir, "meta.json"), meta)
}

// usersByActivity ranks users by job count, ties by name.
func usersByActivity(recs []slurm.Record) []string {
	n := map[string]int{}
	for i := range recs {
		if !recs[i].IsStep() {
			n[recs[i].User]++
		}
	}
	users := make([]string, 0, len(n))
	for u := range n {
		users = append(users, u)
	}
	slices.SortFunc(users, func(a, b string) int {
		if n[a] != n[b] {
			return n[b] - n[a]
		}
		return strings.Compare(a, b)
	})
	return users
}

// openServeStore is the serve workload's set-up: open the dump and
// decode every shard.
func openServeStore(path string, reg *obs.Registry) (*sacct.Store, error) {
	st, _, err := sacct.OpenFile(path)
	if err != nil {
		return nil, err
	}
	st.Instrument(reg)
	if err := st.Warm(); err != nil {
		return nil, err
	}
	return st, nil
}

// serveRun is one serve workload run: the server, its store, the
// client, the ingest batches and what the checks saw.
type serveRun struct {
	e       *env
	meta    serveMeta
	store   *sacct.Store
	srv     *serve.Server
	lb      *loopback
	client  *http.Client
	batches [][]byte
	res     *result
	resMu   sync.Mutex
	// refusals counts failed or refused operations by message.
	refusals map[string]int
	// pending holds the output checks of the phase in flight. settle runs
	// them after the phase, so they never count in a measured time.
	pendMu  sync.Mutex
	pending []func()
	// nextBatch is the next ingest batch to send, in timeline order.
	nextBatch atomic.Int64

	// Traced runs only: handler time per request id while timed; while
	// sampling, the misses to replay and the count of sampled replies
	// checked against Store.WriteN.
	timed    atomic.Bool
	sampling atomic.Bool
	handlerM sync.Mutex
	handler  map[int]time.Duration
	misses   []string
	verified atomic.Int64
	sampleN  atomic.Int64
}

func runServe(e *env) (*result, error) {
	var meta serveMeta
	if err := readJSON(filepath.Join(e.inputs, "meta.json"), &meta); err != nil {
		return nil, err
	}
	sr := &serveRun{e: e, meta: meta, res: newResult(), handler: map[int]time.Duration{}, refusals: map[string]int{}}

	// Set-up opens and warms the dump: three times before the load and
	// once after each round of it, so its samples spread over the run;
	// the median is setup_s. The last store opened before the load is
	// the one served.
	var setups []float64
	var reg *obs.Registry
	setup := func() (*sacct.Store, *obs.Registry, error) {
		runtime.GC()
		r := obs.NewRegistry()
		t0 := time.Now()
		st, err := openServeStore(filepath.Join(e.inputs, meta.Dump), r)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return st, r, nil
	}
	for range 3 {
		if sr.store != nil {
			sr.store.Close()
			sr.store = nil
		}
		st, r, err := setup()
		if err != nil {
			return nil, err
		}
		sr.store, reg = st, r
	}
	defer sr.store.Close()
	sr.res.check(sr.store.Len() == meta.Rows, "store holds %d rows, the dump was written with %d", sr.store.Len(), meta.Rows)

	for _, b := range meta.Batches {
		body, err := os.ReadFile(filepath.Join(e.inputs, b.File))
		if err != nil {
			return nil, err
		}
		sr.batches = append(sr.batches, body)
	}
	srv, err := serve.New(serve.Config{Store: sr.store, System: "frontier", Metrics: reg, Nodes: cluster.Frontier().Nodes})
	if err != nil {
		return nil, err
	}
	sr.srv = srv
	h := srv.Handler()
	sr.lb, err = startLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !sr.timed.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if id, err := strconv.Atoi(r.Header.Get("X-Bench-Id")); err == nil && id >= 0 {
			sr.handlerM.Lock()
			sr.handler[id] = d
			sr.handlerM.Unlock()
		}
	}))
	if err != nil {
		return nil, err
	}
	defer sr.lb.close()
	conns := runtime.GOMAXPROCS(0)
	sr.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer sr.client.CloseIdleConnections()

	r := rand.New(rand.NewSource(e.seed))
	m := newMix(r, meta.Users, meta.Start, meta.Days)
	openFor := time.Duration(float64(e.seconds) * openShare)
	open := openLoopSchedule(e.seed, m, offeredRate, openFor, ingestEvery)
	closed := closedLoopRequests(e.seed+1, m, closedBatches*closedBatch, ingestGap)
	// The closed loop plays once a cycle; the traced run plays it twice,
	// with and without the handler timer.
	closedRuns := serveCycles
	if e.trace {
		closedRuns = 2
	}
	need := countKinds(open)[kindIngest] + closedRuns*countKinds(closed)[kindIngest]
	if need > len(sr.batches) {
		return nil, fmt.Errorf("the run needs %d ingest batches, the inputs hold %d", need, len(sr.batches))
	}
	e.printf("serve: %d rows warmed, %d users, open loop %.1f s at %.0f reads/s + 1 ingest per %v (%s), closed loop %d×%d reads on %d connections",
		sr.store.Len(), len(meta.Users), openFor.Seconds(), offeredRate, ingestEvery, kindSummary(open), closedBatches, closedBatch, conns)

	if e.trace {
		return sr.traced(open, closed, conns, median(setups))
	}

	// The open loop, the closed loop and further set-ups take turns in
	// serveCycles rounds, so each spreads over the whole run.
	openParts := splitSchedule(open, openFor, serveCycles)
	var samples []sample
	var closedWalls, peaks []float64
	for c := range serveCycles {
		beginRep()
		samples = append(samples, runOpenLoop(openParts[c], conns, sr.send)...)
		sr.settle()
		closedWalls = append(closedWalls, sr.closedLoop(closed, conns)...)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		st, _, err := setup()
		if err != nil {
			return nil, err
		}
		st.Close()
	}
	res := sr.res
	for _, s := range samples {
		res.attempted++
		if s.failed {
			res.failed++
		}
	}
	e.printf("samples run_s %v", rounded(closedWalls))
	e.printf("samples setup_s %v", rounded(setups))
	e.printf("samples peak_rss_mb %v", rounded(peaks))
	queries := append(latenciesOf(samples, kindHot), latenciesOf(samples, kindTail)...)
	p99, at, note := queries.tail(99)
	res.metrics["setup_s"] = median(setups)
	res.metrics["run_s"] = median(closedWalls)
	res.metrics["op_ms"] = percentile(queries, 50)
	res.metrics["peak_rss_mb"] = median(peaks)
	sr.report(samples, closedWalls)
	e.printf("query_p50_ms = %.4f ms, query_p95_ms = %.4f ms, query_p99_ms = %.4f ms (p%g of %d /query samples) %s",
		percentile(queries, 50), percentile(queries, 95), p99, at, len(queries), note)
	return res, nil
}

func kindSummary(reqs []request) string {
	var parts []string
	for k, n := range countKinds(reqs) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, n))
	}
	slices.Sort(parts)
	return strings.Join(parts, " ")
}

// closedLoop runs closed-loop requests in batches and returns each
// batch's wall time in seconds.
func (sr *serveRun) closedLoop(reqs []request, conns int) []float64 {
	var walls []float64
	for b := 0; b < len(reqs); {
		// A batch is closedBatch reads plus the ingests among them.
		end, reads := b, 0
		for end < len(reqs) && (reads < closedBatch || reqs[end].kind == kindIngest) {
			if reqs[end].kind != kindIngest {
				reads++
			}
			end++
		}
		ss, wall := runClosedLoop(reqs[b:end], conns, sr.send)
		sr.settle()
		for _, s := range ss {
			sr.res.attempted++
			if s.failed {
				sr.res.failed++
			}
		}
		walls = append(walls, wall.Seconds())
		b = end
	}
	return walls
}

// report prints the serve-specific end-to-end numbers.
func (sr *serveRun) report(samples []sample, closedWalls []float64) {
	fig, figAt, figNote := latenciesOf(samples, kindFigure).tail(99)
	ing, ingAt, ingNote := latenciesOf(samples, kindIngest).tail(99)
	sr.e.printf("figure tail = %.4f ms at p%g %s", fig, figAt, figNote)
	sr.e.printf("ingest tail = %.4f ms at p%g %s", ing, ingAt, ingNote)
	for msg, n := range sr.refusals {
		sr.e.printf("failed operation ×%d: %s", n, msg)
	}
	sr.e.printf("serve_capacity_qps = %.1f 1/s (closed loop, median over %d plays of a %d-read batch); failed_frac = %.4g",
		float64(closedBatch)/median(closedWalls), len(closedWalls), closedBatch, float64(sr.res.failed)/float64(max(sr.res.attempted, 1)))
}

// refuse records an operation that failed or was refused. It counts in
// failed, not as a wrong output.
func (sr *serveRun) refuse(format string, args ...any) bool {
	sr.resMu.Lock()
	sr.refusals[fmt.Sprintf(format, args...)]++
	sr.resMu.Unlock()
	return false
}

// fail records a wrong output, which fails the run.
func (sr *serveRun) fail(format string, args ...any) {
	sr.resMu.Lock()
	sr.res.check(false, format, args...)
	sr.resMu.Unlock()
}

// later queues an output check for settle.
func (sr *serveRun) later(check func()) {
	sr.pendMu.Lock()
	sr.pending = append(sr.pending, check)
	sr.pendMu.Unlock()
}

// settle runs the output checks queued by the phase that just ended.
func (sr *serveRun) settle() {
	sr.pendMu.Lock()
	checks := sr.pending
	sr.pending = nil
	sr.pendMu.Unlock()
	for _, c := range checks {
		c()
	}
}

// send issues the i-th request of a phase. It returns when the reply is
// read, so the load generator's timing ends there; the reply's output
// checks are queued for settle.
func (sr *serveRun) send(i int, r request) bool {
	if r.kind == kindIngest {
		return sr.ingest(i, int(sr.nextBatch.Add(1)-1))
	}
	status, hdr, body, err := sr.do(i, http.MethodGet, r.path, nil)
	if err != nil {
		return sr.refuse("%s: %v", r.kind, err)
	}
	if status != http.StatusOK {
		if r.kind == kindFigure {
			return sr.refuse("%s: status %d: %s", r.path, status, bytes.TrimSpace(body))
		}
		return sr.refuse("%s: status %d: %s", r.kind, status, bytes.TrimSpace(body))
	}
	if sr.sampling.Load() && r.kind != kindFigure {
		if hdr.Get("X-Cache") == "miss" {
			sr.handlerM.Lock()
			sr.misses = append(sr.misses, r.path)
			sr.handlerM.Unlock()
		}
		if sr.sampleN.Add(1)%50 == 0 {
			gen := hdr.Get("X-Store-Generation")
			sr.later(func() { sr.verifyBody(r.path, gen, body) })
		}
	}
	return true
}

// do sends one request and reads the whole reply. id keys the handler
// timer in traced runs; requests outside the schedule pass -1.
func (sr *serveRun) do(id int, method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, sr.lb.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("X-Bench-Id", strconv.Itoa(id))
	resp, err := sr.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// ingest posts one batch; its latency ends with the acknowledgement.
// proveVisible checks the acknowledgement after the phase.
func (sr *serveRun) ingest(id, i int) bool {
	status, _, body, err := sr.do(id, http.MethodPost, "/ingest", sr.batches[i])
	if err != nil {
		return sr.refuse("ingest: %v", err)
	}
	if status != http.StatusOK {
		return sr.refuse("ingest: status %d: %s", status, bytes.TrimSpace(body))
	}
	sr.later(func() { sr.proveVisible(i, body) })
	return true
}

// proveVisible checks an ingest's acknowledgement and proves the batch
// visible: a follow-up window query over the batch's submit range,
// answered at the acknowledged generation or later, must return exactly
// the batch's rows. Later batches were submitted after the window, so
// they never add to it. The follow-up counts as an attempted operation.
func (sr *serveRun) proveVisible(i int, ackBody []byte) {
	bm := sr.meta.Batches[i]
	var ack struct {
		Rows       int    `json:"rows"`
		Malformed  int    `json:"malformed"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		sr.fail("ingest batch %d: ack: %v", i, err)
		return
	}
	if ack.Rows != bm.Rows || ack.Malformed != 0 {
		sr.fail("ingest batch %d: acknowledged %d rows (%d malformed), sent %d", i, ack.Rows, ack.Malformed, bm.Rows)
		return
	}
	v := url.Values{
		"start":  {bm.Start.Format(time.RFC3339Nano)},
		"end":    {bm.End.Format(time.RFC3339Nano)},
		"steps":  {"1"},
		"fields": {"JobID"},
	}
	status, hdr, body, err := sr.do(-1, http.MethodGet, queryPath(v), nil)
	sr.resMu.Lock()
	sr.res.attempted++
	sr.resMu.Unlock()
	if err != nil || status != http.StatusOK {
		sr.refuse("ingest follow-up query: status %d, %v: %s", status, err, bytes.TrimSpace(body))
		sr.resMu.Lock()
		sr.res.failed++
		sr.resMu.Unlock()
		return
	}
	if err := visibilityError(ack.Generation, hdr.Get("X-Store-Generation"), hdr.Get("X-Rows"), bm.Rows); err != nil {
		sr.fail("ingest batch %d: %v", i, err)
	}
}

// visibilityError proves an acknowledged ingest visible, or says why a
// follow-up read does not: the read must be answered at the
// acknowledged generation or later and return exactly the batch's rows.
func visibilityError(ackGen uint64, readGen string, rows string, batchRows int) error {
	g, err := strconv.ParseUint(readGen, 10, 64)
	if err != nil {
		return fmt.Errorf("follow-up carries no store generation (%q)", readGen)
	}
	if g < ackGen {
		return fmt.Errorf("follow-up answered at generation %d, before the acknowledged %d", g, ackGen)
	}
	n, err := strconv.Atoi(rows)
	if err != nil {
		return fmt.Errorf("follow-up carries no row count (%q)", rows)
	}
	if n != batchRows {
		return fmt.Errorf("follow-up returned %d rows, the batch has %d", n, batchRows)
	}
	return nil
}

// verifyBody compares a sampled /query reply, served at generation
// replyGen, with Store.WriteN after the phase. Ingest appends only rows
// submitted from the first batch's start on, so a query whose window
// ends by then selects the same rows at every later generation; its
// reply is compared even though the store has moved on. Any other reply
// is compared only while the store is still at replyGen, and skipped
// otherwise.
func (sr *serveRun) verifyBody(path, replyGen string, body []byte) {
	q, limit, err := queryOf(path)
	if err != nil {
		sr.fail("sampled %s: %v", path, err)
		return
	}
	gen, err := strconv.ParseUint(replyGen, 10, 64)
	if err != nil {
		sr.fail("sampled %s: reply carries no store generation (%q)", path, replyGen)
		return
	}
	now := sr.store.Generation()
	if gen > now {
		sr.fail("sampled %s: reply at generation %d, the store is at %d", path, gen, now)
		return
	}
	if gen != now && !windowBefore(q, sr.meta.Batches[0].Start) {
		return
	}
	var want bytes.Buffer
	if _, err := sr.store.WriteN(&want, q, limit); err != nil {
		sr.fail("sampled %s: WriteN: %v", path, err)
		return
	}
	sr.verified.Add(1)
	if !bytes.Equal(body, want.Bytes()) {
		sr.fail("sampled %s at generation %d: reply differs from Store.WriteN at generation %d (%d vs %d bytes)",
			path, gen, now, len(body), want.Len())
	}
}

// windowBefore reports whether a query's submit window ends by t.
func windowBefore(q sacct.Query, t time.Time) bool { return !q.End.IsZero() && !q.End.After(t) }

// queryOf maps the workload's /query parameters onto a sacct.Query.
func queryOf(path string) (sacct.Query, int, error) {
	u, err := url.Parse(path)
	if err != nil {
		return sacct.Query{}, 0, err
	}
	v := u.Query()
	var q sacct.Query
	if f := v.Get("fields"); f != "" {
		q.Fields = strings.Split(f, ",")
	}
	for _, t := range []struct {
		name string
		dst  *time.Time
	}{{"start", &q.Start}, {"end", &q.End}} {
		if s := v.Get(t.name); s != "" {
			if *t.dst, err = time.Parse("2006-01-02", s); err != nil {
				if *t.dst, err = time.Parse(time.RFC3339Nano, s); err != nil {
					return q, 0, err
				}
			}
		}
	}
	q.User, q.State = v.Get("user"), v.Get("state")
	q.IncludeSteps = v.Get("steps") == "1"
	limit := 0
	if l := v.Get("limit"); l != "" {
		if limit, err = strconv.Atoi(l); err != nil {
			return q, 0, err
		}
	}
	return q, limit, nil
}

// traced is the serve workload's traced run: the open loop with the
// handler timer on; each closed-loop batch's reads twice, with and
// without the timer, on successive ingest batches (the tracing
// overhead); and then each layer's public entry points called on their
// own.
func (sr *serveRun) traced(open, closed []request, conns int, setup float64) (*result, error) {
	e, res := sr.e, sr.res
	sr.timed.Store(true)
	sr.sampling.Store(true)
	samples := runOpenLoop(open, conns, sr.send)
	sr.timed.Store(false)
	sr.sampling.Store(false)
	sr.settle()
	for _, s := range samples {
		res.attempted++
		if s.failed {
			res.failed++
		}
	}
	hits, misses, coal := sr.cacheCounters()
	res.metrics["serve.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses+coal, 1))
	res.metrics["serve.cache_misses"] = float64(misses)
	res.metrics["serve.cache_coalesced"] = float64(coal)
	res.check(sr.verified.Load() > 0, "no sampled /query reply could be compared with Store.WriteN")

	// Each /query's latency from due splits into waiting (for a free
	// connection, plus generator lateness), client and HTTP overhead,
	// and handler time. Means add up exactly; the medians are reported.
	var handler, client, wait, lates, total []float64
	sr.handlerM.Lock()
	for i, s := range samples {
		lates = append(lates, ms(s.late))
		h, ok := sr.handler[i]
		if s.failed || (s.req.kind != kindHot && s.req.kind != kindTail) || !ok {
			continue
		}
		total = append(total, ms(s.latency))
		wait = append(wait, ms(s.latency-s.wire))
		handler = append(handler, ms(h))
		client = append(client, ms(s.wire-h))
	}
	missPaths := slices.Clone(sr.misses)
	sr.handlerM.Unlock()
	res.metrics["serve.server_query_ms"] = median(handler)
	res.metrics["serve.client_overhead_ms"] = median(client)
	res.metrics["loadgen.late_ms_p99"] = percentile(lates, 99)
	fig, figAt, _ := latenciesOf(samples, kindFigure).tail(99)
	ing, ingAt, _ := latenciesOf(samples, kindIngest).tail(99)
	res.metrics["serve.figure_tail_ms"] = fig
	res.metrics["serve.ingest_tail_ms"] = ing
	queries := append(latenciesOf(samples, kindHot), latenciesOf(samples, kindTail)...)
	res.metrics["serve.query_p95_ms"] = percentile(queries, 95)
	res.metrics["serve.query_p99_ms"], _, _ = queries.tail(99)

	// Each closed-loop batch runs twice, without and with the timer, in
	// alternating order so the store's growth between the two cancels.
	var untraced, ratios []float64
	per := len(closed) / closedBatches
	for b := range closedBatches {
		batch := closed[b*per : (b+1)*per]
		var walls [2]float64
		for k := range 2 {
			timed := (b+k)%2 == 1
			sr.timed.Store(timed)
			w := sr.closedLoop(batch, conns)[0]
			if timed {
				walls[1] = w
			} else {
				walls[0] = w
			}
		}
		sr.timed.Store(false)
		untraced = append(untraced, walls[0])
		ratios = append(ratios, walls[1]/walls[0])
	}
	res.metrics["serve.trace_overhead"] = median(ratios) - 1
	res.metrics["serve.capacity_qps"] = float64(closedBatch) / median(untraced)

	l := newLayerTimer()
	for _, path := range missPaths {
		q, limit, err := queryOf(path)
		if err != nil {
			return nil, err
		}
		l.time("sacct.scan", func() error { _, err := sr.store.WriteN(io.Discard, q, limit); return err })
	}
	res.metrics["sacct.scan_ms"] = ms(l.total["sacct.scan"]) / float64(max(len(missPaths), 1))
	m := sr.srv.Metrics()
	res.metrics["colstore.bytes_read"] = float64(m.Counter("colstore_bytes_read_total").Value())
	res.metrics["colstore.columns_read"] = float64(m.Counter("colstore_columns_read_total").Value())

	fresh, _, err := sacct.OpenFile(filepath.Join(e.inputs, sr.meta.Dump))
	if err != nil {
		return nil, err
	}
	defer fresh.Close()
	l.time("sacct.warm", fresh.Warm)
	res.metrics["sacct.warm_s"] = l.total["sacct.warm"].Seconds()

	var b *analyze.Bundle
	l.time("analyze.collect", func() error {
		var err error
		b, err = analyze.Collect(sr.store.Scan(sacct.Query{IncludeSteps: true}), core.TimelineBucket)
		return err
	})
	res.metrics["analyze.collect_s"] = l.total["analyze.collect"].Seconds()
	keys := append(core.FigureKeys(), core.ExtendedFigureKeys()...)
	for _, key := range keys {
		l.time("core.chart", func() error {
			_, err := core.ChartFromBundle(key, "frontier", b, 15, cluster.Frontier().Nodes)
			return err
		})
	}
	res.metrics["core.chart_ms"] = ms(l.total["core.chart"]) / float64(len(keys))

	// The open loop's ingest batches again, decoded as the service's text
	// path decodes them and appended to the fresh store.
	ingested := countKinds(open)[kindIngest]
	for i := range ingested {
		var recs []slurm.Record
		l.time("slurm.batch_decode", func() error {
			var err error
			recs, err = decodeBatch(sr.batches[i])
			return err
		})
		l.time("sacct.add", func() error {
			if err := fresh.Add(recs...); err != nil {
				return err
			}
			fresh.Finalize()
			return nil
		})
	}
	if l.err != nil {
		return nil, l.err
	}
	res.metrics["slurm.batch_decode_ms"] = ms(l.total["slurm.batch_decode"]) / float64(max(ingested, 1))
	res.metrics["sacct.add_ms"] = ms(l.total["sacct.add"]) / float64(max(ingested, 1))

	e.printf("reconcile serve: /query mean latency from due %.4f ms = waiting %.4f ms + client/HTTP %.4f ms + handler %.4f ms (%d samples); gap %+.4f ms",
		mean(total), mean(wait), mean(client), mean(handler), len(total), mean(total)-mean(wait)-mean(client)-mean(handler))
	e.printf("reconcile serve: handler mean %.4f ms vs replayed Store.WriteN per miss %.4f ms × miss share %.3f; closed-loop tracing overhead %+.2f%% (untraced median batch %.4f s); setup_s %.4f s (sacct.warm_s %.4f s re-timed)",
		mean(handler), res.metrics["sacct.scan_ms"], float64(misses)/float64(max(hits+misses+coal, 1)),
		100*res.metrics["serve.trace_overhead"], median(untraced), setup, res.metrics["sacct.warm_s"])
	e.printf("figure tail at p%g, ingest tail at p%g; %d sampled /query replies matched Store.WriteN", figAt, ingAt, sr.verified.Load())
	return res, nil
}

// decodeBatch decodes a pipe-text ingest batch row by row with
// slurm.DecodeRecord, as the service's text ingest path does.
func decodeBatch(body []byte) ([]slurm.Record, error) {
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	fields := strings.Split(lines[0], slurm.Separator)
	recs := make([]slurm.Record, 0, len(lines)-1)
	for _, line := range lines[1:] {
		rec, err := slurm.DecodeRecord(line, fields)
		if err != nil {
			return nil, err
		}
		recs = append(recs, *rec)
	}
	return recs, nil
}

// cacheCounters reads the response cache's exported counters.
func (sr *serveRun) cacheCounters() (hits, misses, coalesced int64) {
	m := sr.srv.Metrics()
	return m.Counter("serve_cache_hits_total").Value(), m.Counter("serve_cache_misses_total").Value(),
		m.Counter("serve_cache_coalesced_total").Value()
}
