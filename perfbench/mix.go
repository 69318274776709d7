package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"

	"slurmsight/internal/core"
)

// reqKind is one kind of request in the serve workload's mix.
type reqKind int

const (
	kindHot    reqKind = iota // a repeated query from a set that fits the response cache
	kindTail                  // a long-tail query over Zipf-drawn users, windows, states and fields
	kindFigure                // a figure spec
	kindIngest                // a POST /ingest batch
)

func (k reqKind) String() string {
	return [...]string{"hot", "tail", "figure", "ingest"}[k]
}

// request is one scheduled request; due is its offset from the start
// of its phase. An ingest takes the next unsent batch when it is sent.
type request struct {
	due  time.Duration
	kind reqKind
	path string
}

// mix draws the serve workload's read requests. Shares are of read
// requests; ingests run on their own cadence.
type mix struct {
	hot   []string // /query paths, fewer than the cache holds
	users []string // by descending activity
	start time.Time
	days  int // the base window's length

	hotShare, figureShare float64
}

// mixShares are the read-request shares, taken from cmd/queryload's
// committed mix: of its 16 request slots, 8 repeat canonical queries
// (hot here), 1 asks for a figure when figures are on, and 7 filter by
// month window or user (the long tail here, the rest).
const (
	hotShare    = 8.0 / 16
	figureShare = 1.0 / 16
	hotKeys     = 16 // distinct hot queries, well under the 1,024-entry cache
	// tailLimit is the long-tail queries' page size, as a dashboard would
	// page a large result.
	tailLimit = 1000
)

// tailFieldSets are the long-tail queries' column selections; "" is the
// full curated selection.
var tailFieldSets = []string{
	"JobID,User,State",
	"JobID,User,Account,Partition,State,Submit,Start,End",
	"JobID,NNodes,Elapsed,Timelimit",
	"JobID,State,ExitCode",
	"JobID,Submit,Start,NNodes,Timelimit,Elapsed,State,Backfill",
	"",
}

// tailStates are the long-tail state filters, most common first.
var tailStates = []string{"", "COMPLETED", "FAILED", "TIMEOUT", "CANCELLED", "OUT_OF_MEMORY"}

// tailSpans are the long-tail window lengths in days.
var tailSpans = []int{1, 2, 3, 5, 7, 14, 31}

// newMix builds the hot set from the seed: the most active users' jobs
// on single days of the base window.
func newMix(r *rand.Rand, users []string, start time.Time, days int) *mix {
	m := &mix{users: users, start: start, days: days, hotShare: hotShare, figureShare: figureShare}
	seen := map[string]bool{}
	for len(m.hot) < hotKeys {
		u := users[r.Intn(min(16, len(users)))]
		d := r.Intn(days)
		p := queryPath(url.Values{
			"user":   {u},
			"start":  {m.day(d)},
			"end":    {m.day(d + 1)},
			"fields": {tailFieldSets[0]},
		})
		if !seen[p] {
			seen[p] = true
			m.hot = append(m.hot, p)
		}
	}
	return m
}

func (m *mix) day(d int) string { return m.start.AddDate(0, 0, d).Format("2006-01-02") }

// next draws one read request.
func (m *mix) next(r *rand.Rand, zipf *rand.Zipf) request {
	x := r.Float64()
	switch {
	case x < m.hotShare:
		return request{kind: kindHot, path: m.hot[r.Intn(len(m.hot))]}
	case x < m.hotShare+m.figureShare:
		keys := append(core.FigureKeys(), core.ExtendedFigureKeys()...)
		return request{kind: kindFigure, path: "/figures/" + keys[r.Intn(len(keys))] + ".json"}
	}
	v := url.Values{"user": {m.users[zipf.Uint64()]}}
	span := tailSpans[zipfIndex(r, len(tailSpans))]
	d := r.Intn(max(1, m.days-span+1))
	v.Set("start", m.day(d))
	v.Set("end", m.day(d+span))
	if st := tailStates[zipfIndex(r, len(tailStates))]; st != "" {
		v.Set("state", st)
	}
	if f := tailFieldSets[r.Intn(len(tailFieldSets))]; f != "" {
		v.Set("fields", f)
	}
	if r.Intn(10) == 0 {
		v.Set("steps", "1")
	}
	v.Set("limit", strconv.Itoa(tailLimit))
	return request{kind: kindTail, path: queryPath(v)}
}

// zipfIndex draws an index in [0, n) with weight 1/(i+1).
func zipfIndex(r *rand.Rand, n int) int {
	total := 0.0
	for i := range n {
		total += 1 / float64(i+1)
	}
	x := r.Float64() * total
	for i := range n {
		x -= 1 / float64(i+1)
		if x < 0 {
			return i
		}
	}
	return n - 1
}

func queryPath(v url.Values) string { return "/query?" + v.Encode() }

// userZipf draws user ranks with skew 1.1 over the population. The skew
// is an assumption: no harness or trace in the repository measures how
// often each user queries.
func userZipf(r *rand.Rand, users int) *rand.Zipf {
	return rand.NewZipf(r, 1.1, 1, uint64(users-1))
}

// openLoopSchedule is the open-loop phase: Poisson read arrivals at rate
// per second plus one ingest every ingestEvery, for duration, sorted by
// due time.
func openLoopSchedule(seed int64, m *mix, rate float64, duration, ingestEvery time.Duration) []request {
	r := rand.New(rand.NewSource(seed))
	zipf := userZipf(r, len(m.users))
	var out []request
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= duration {
			break
		}
		req := m.next(r, zipf)
		req.due = t
		out = append(out, req)
	}
	for t := ingestEvery; t < duration; t += ingestEvery {
		out = append(out, request{due: t, kind: kindIngest})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// closedLoopRequests is the closed-loop phase's request list: n reads
// with one ingest after every ingestGap reads, keeping the open loop's
// ingest-to-read ratio.
func closedLoopRequests(seed int64, m *mix, n, ingestGap int) []request {
	r := rand.New(rand.NewSource(seed))
	zipf := userZipf(r, len(m.users))
	out := make([]request, 0, n+n/ingestGap)
	for i := range n {
		out = append(out, m.next(r, zipf))
		if (i+1)%ingestGap == 0 {
			out = append(out, request{kind: kindIngest})
		}
	}
	return out
}

// splitSchedule cuts an open-loop schedule into n consecutive segments
// of equal duration, each rebased to start at 0.
func splitSchedule(s []request, duration time.Duration, n int) [][]request {
	out := make([][]request, n)
	seg := duration / time.Duration(n)
	for _, r := range s {
		k := min(int(r.due/seg), n-1)
		r.due -= time.Duration(k) * seg
		out[k] = append(out[k], r)
	}
	return out
}

// countKinds tallies a schedule by kind.
func countKinds(reqs []request) map[reqKind]int {
	out := map[reqKind]int{}
	for _, r := range reqs {
		out[r.kind]++
	}
	return out
}
