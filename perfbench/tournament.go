package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/sched"
	"slurmsight/internal/sched/tournament"
	"slurmsight/internal/tracegen"
)

// The tournament workload races the seven tournament.DefaultSpecs arms
// over contended Frontier traces, and then runs each arm alone. A trace
// is the first tournamentRequests submissions at tournamentJobsPerDay,
// above what the machine drains, so the conservative and no-backfill
// arms build deep queues while the others stay shallow. Holding the
// request count fixed removes the Poisson count's share of the
// seed-to-seed spread; racing several traces drawn from the input set
// and reporting their mean shrinks the rest (one trace's arms cost up to
// ±20% of another's).
//
// The default arm's utilization over the whole simulated span, drain
// included, is 0.83–0.93 per trace: the last long jobs drain a nearly
// idle machine. Longer traces or higher rates did not lift it above 0.9
// for every trace (6,000 requests: 0.88–0.92 at 2.5 times the cost), so
// the check below holds the mean over the run's traces to minUtilization.
var (
	tournamentStart = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	tournamentEnd   = tournamentStart.AddDate(0, 0, 1)
)

const (
	tournamentJobsPerDay = 6000
	tournamentUsers      = 300
	tournamentRequests   = 3000
	tournamentTraces     = 10
	// minUtilization bounds the default arm's mean utilization over the
	// run's traces from below; deepQueueFactor is how many times the
	// default arm's mean wait the conservative and no-backfill arms must
	// wait at least. Over the 32 input sets these read 0.86–0.91, and
	// 1.7–6.1 times (conservative) and 8–33 times (no-backfill).
	minUtilization  = 0.85
	deepQueueFactor = 1.5
)

// tournamentMeta describes the generated traces.
type tournamentMeta struct {
	Requests []int `json:"requests"`
}

func tournamentPhases() []tracegen.Phase {
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = tournamentJobsPerDay, tournamentUsers
	return []tracegen.Phase{{Profile: p, Start: tournamentStart, End: tournamentEnd}}
}

// traceSeed is the k-th trace's seed; distinct run seeds never share a
// trace.
func traceSeed(seed int64, k int) int64 { return seed*tournamentTraces + int64(k) }

// generateTraces is the workload's set-up: every trace of the run.
func generateTraces(seed int64) ([][]tracegen.Request, error) {
	out := make([][]tracegen.Request, tournamentTraces)
	for k := range out {
		reqs, err := tracegen.Generate(tournamentPhases(), traceSeed(seed, k))
		if err != nil {
			return nil, err
		}
		if len(reqs) < tournamentRequests {
			return nil, fmt.Errorf("trace %d has %d requests, fewer than %d", k, len(reqs), tournamentRequests)
		}
		out[k] = reqs[:tournamentRequests]
	}
	return out, nil
}

// generateTournament records the traces' sizes; the traces themselves
// are regenerated from the seed as the workload's set-up.
func generateTournament(dir string, seed int64) error {
	traces, err := generateTraces(seed)
	if err != nil {
		return err
	}
	var meta tournamentMeta
	for _, t := range traces {
		meta.Requests = append(meta.Requests, len(t))
	}
	return writeMeta(dir, meta)
}

func runTournament(e *env) (*result, error) {
	var meta tournamentMeta
	if err := readJSON(filepath.Join(e.inputs, "meta.json"), &meta); err != nil {
		return nil, err
	}
	res := newResult()

	// Set-up generates the run's traces, which the next round races. It
	// runs five times before the first round and once after each, so its
	// samples spread over the run; the median is setup_s. Each set-up
	// replaces the last one's traces, so every round holds one set.
	var setups []float64
	var inputs []tournament.Input
	setup := func() error {
		inputs = nil
		runtime.GC()
		t0 := time.Now()
		traces, err := generateTraces(e.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, reqs := range traces {
			res.check(k < len(meta.Requests) && len(reqs) == meta.Requests[k],
				"trace %d has %d requests, the generator recorded %v", k, len(reqs), meta.Requests)
			inputs = append(inputs, tournament.Input{Specs: tournament.DefaultSpecs(), Reqs: reqs, System: cluster.Frontier(), Seed: traceSeed(e.seed, k)})
		}
		return nil
	}
	for range 5 {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	if e.trace {
		return traceTournament(e, res, inputs[0], median(setups))
	}

	// A round races every trace (run_s) and then runs each arm alone,
	// one after another (op_ms): two rounds, and more while another fits
	// in the measured time. Per trace and arm the median rep counts.
	walls := make([][]float64, len(inputs))
	arms := make([][][]float64, len(inputs)) // per trace and arm, ms alone
	slowest := make([][]float64, len(inputs))
	cards := make([]*tournament.Scorecard, len(inputs))
	var peaks []float64
	start := time.Now()
	for round, last := 0, time.Duration(0); round < 2 || time.Since(start)+last <= e.seconds; round++ {
		r0 := time.Now()
		for k, in := range inputs {
			beginRep()
			t0 := time.Now()
			sc, err := tournament.Run(in)
			wall := time.Since(t0)
			res.attempted += int64(len(in.Specs))
			if err != nil {
				res.failed += int64(len(in.Specs))
				res.check(false, "trace %d: %v", k, err)
				return res, nil
			}
			walls[k] = append(walls[k], wall.Seconds())
			d, err := scorecardDigest(sc)
			if err != nil {
				return nil, err
			}
			checkScorecard(res, sc, len(in.Reqs))
			e.refs.check(res, k, d, fmt.Sprintf("trace %d scorecard", k))
			cards[k] = sc

			alone, err := runArmsAlone(res, k, in, sc)
			if err != nil {
				return nil, err
			}
			peak, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, peak)
			if arms[k] == nil {
				arms[k] = make([][]float64, len(alone))
			}
			for a, d := range alone {
				arms[k][a] = append(arms[k][a], ms(d))
			}
			slowest[k] = append(slowest[k], ms(slices.Max(alone)))
		}
		if err := setup(); err != nil {
			return nil, err
		}
		last = time.Since(r0)
	}
	checkTournamentShape(e, res, cards)
	// op_ms is the geometric mean over traces and arms of each arm's
	// median time alone.
	var wall, arm, slow []float64
	for k := range inputs {
		wall = append(wall, median(walls[k]))
		slow = append(slow, median(slowest[k]))
		for _, a := range arms[k] {
			arm = append(arm, median(a))
		}
	}
	e.printf("samples setup_s %v", rounded(setups))
	e.printf("samples run_s %v", rounded(wall))
	e.printf("samples peak_rss_mb %v", rounded(peaks))
	res.metrics["setup_s"] = median(setups)
	res.metrics["run_s"] = mean(wall)
	res.metrics["op_ms"] = geomean(arm)
	res.metrics["peak_rss_mb"] = median(peaks)
	for k, sc := range cards {
		e.printf("trace %d: %d requests, %d reps, tournament_s %.4f s, default-arm utilization %.3f",
			k, len(inputs[k].Reqs), len(walls[k]), wall[k], sc.Policies[0].Utilization)
		for a, p := range sc.Policies {
			e.printf("  arm %-13s mean wait %9.0f s  backfill %5.1f%%  utilization %.3f  alone %8.2f ms",
				p.Name, p.MeanWaitSec, 100*p.BackfillFrac, p.Utilization, median(arms[k][a]))
		}
	}
	e.printf("tournament_s (mean over traces of the median tournament.Run) = %.4f s; slowest arm alone %.1f ms (mean over traces); failed_frac = %.4g",
		mean(wall), mean(slow), float64(res.failed)/float64(res.attempted))
	return res, nil
}

// runArmsAlone runs each arm's simulator alone, one after another, on
// the trace the tournament raced, and returns each one's wall time. Each
// run must agree with the arm's scorecard row: the race shares only the
// read-only trace, so it cannot change an arm's outcome.
func runArmsAlone(res *result, k int, in tournament.Input, sc *tournament.Scorecard) ([]time.Duration, error) {
	out := make([]time.Duration, len(in.Specs))
	for a, sp := range in.Specs {
		cfg, err := sp.Config(in.System, in.Seed)
		if err != nil {
			return nil, err
		}
		sim, err := sched.New(cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := sim.Run(in.Reqs, sched.Options{})
		out[a] = time.Since(t0)
		res.attempted++
		if err != nil {
			res.failed++
			res.check(false, "trace %d arm %s alone: %v", k, sp.Name, err)
			continue
		}
		p, st := sc.Policies[a], r.Stats
		res.check(st.JobsCompleted == p.Completed && st.Backfilled == p.Backfilled &&
			st.Utilization() == p.Utilization && st.MaxWait.Seconds() == p.MaxWaitSec,
			"trace %d arm %s alone: completed %d, backfilled %d, utilization %g, max wait %g s; in the tournament %d, %d, %g, %g s",
			k, sp.Name, st.JobsCompleted, st.Backfilled, st.Utilization(), st.MaxWait.Seconds(),
			p.Completed, p.Backfilled, p.Utilization, p.MaxWaitSec)
	}
	return out, nil
}

// checkTournamentShape holds the run's traces to the contention the
// workload is meant to have: a busy machine under the default arm, and
// deep queues under the conservative and no-backfill arms.
func checkTournamentShape(e *env, res *result, cards []*tournament.Scorecard) {
	util := 0.0
	wait := map[string]float64{}
	for _, sc := range cards {
		util += sc.Policies[0].Utilization / float64(len(cards))
		for _, p := range sc.Policies {
			wait[p.Name] += p.MeanWaitSec / float64(len(cards))
		}
	}
	res.check(util >= minUtilization, "default-arm utilization %.3f (mean over traces), below %.2f", util, minUtilization)
	for _, arm := range []string{"conservative", "no-backfill"} {
		res.check(wait[arm] >= deepQueueFactor*wait["default"], "%s arm mean wait %.0f s, not %g times the default arm's %.0f s",
			arm, wait[arm], deepQueueFactor, wait["default"])
	}
	e.printf("contention: default-arm utilization %.3f (mean over traces); mean wait default %.0f s, conservative %.1f×, no-backfill %.1f×",
		util, wait["default"], wait["conservative"]/wait["default"], wait["no-backfill"]/wait["default"])
}

// scorecardDigest hashes the scorecard with its wall-clock elapsed_ms
// fields zeroed: everything else is a pure function of trace and specs.
func scorecardDigest(sc *tournament.Scorecard) (string, error) {
	c := *sc
	c.ElapsedMS = 0
	c.Policies = slices.Clone(sc.Policies)
	for i := range c.Policies {
		c.Policies[i].ElapsedMS = 0
	}
	b, err := c.EncodeJSON()
	if err != nil {
		return "", err
	}
	d := newDigest()
	d.add("scorecard.json", b)
	return d.sum(), nil
}

// checkScorecard holds every arm to invariants that follow from the
// trace alone: each request becomes exactly one job, and the no-backfill
// arm backfills nothing.
func checkScorecard(res *result, sc *tournament.Scorecard, requests int) {
	res.check(len(sc.Policies) == len(tournamentArms), "scorecard has %d arms, want %d", len(sc.Policies), len(tournamentArms))
	for i, p := range sc.Policies {
		if i < len(tournamentArms) {
			res.check(p.Name == tournamentArms[i], "arm %d is %q, want %q", i, p.Name, tournamentArms[i])
		}
		jobs := 0
		for _, c := range p.Classes {
			jobs += c.Jobs
		}
		res.check(jobs == requests, "arm %s scored %d jobs for %d requests", p.Name, jobs, requests)
		res.check(p.Started <= jobs && p.Backfilled <= p.Started, "arm %s: started %d, backfilled %d of %d jobs", p.Name, p.Started, p.Backfilled, jobs)
		res.check(p.Utilization > 0 && p.Utilization <= 1, "arm %s: utilization %g", p.Name, p.Utilization)
		if p.Name == "no-backfill" {
			res.check(p.Backfilled == 0, "no-backfill arm backfilled %d jobs", p.Backfilled)
		}
	}
}

// traceTournament is the traced run: two untraced tournaments for the
// overhead baseline, one with the registry and tracer on, and then each
// arm's simulator alone, one arm after another, with its own registry.
func traceTournament(e *env, res *result, in tournament.Input, setup float64) (*result, error) {
	var untraced []float64
	for range 2 {
		t0 := time.Now()
		if _, err := tournament.Run(in); err != nil {
			return nil, err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		res.attempted += int64(len(in.Specs))
	}
	traced := in
	traced.Metrics, traced.Tracer = obs.NewRegistry(), obs.NewTracer()
	t0 := time.Now()
	sc, err := tournament.Run(traced)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	res.attempted += int64(len(in.Specs))
	checkScorecard(res, sc, len(in.Reqs))
	d, err := scorecardDigest(sc)
	if err != nil {
		return nil, err
	}
	e.refs.check(res, 0, d, "trace 0 scorecard")

	t0 = time.Now()
	if _, err := generateTraces(e.seed); err != nil {
		return nil, err
	}
	res.metrics["tracegen.generate_s"] = time.Since(t0).Seconds()

	var serial float64
	for _, sp := range in.Specs {
		cfg, err := sp.Config(in.System, in.Seed)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		sim, err := sched.New(cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := sim.Run(in.Reqs, sched.Options{}); err != nil {
			return nil, fmt.Errorf("arm %s: %w", sp.Name, err)
		}
		run := time.Since(t0)
		serial += run.Seconds()
		res.metrics["tournament.slowest_arm_ms"] = max(res.metrics["tournament.slowest_arm_ms"], ms(run))
		passes := reg.Counter("sched_passes_total").Value()
		p := "sched." + sp.Name + "."
		res.metrics[p+"run_s"] = run.Seconds()
		res.metrics[p+"passes"] = float64(passes)
		res.metrics[p+"events"] = float64(reg.Counter("sched_events_processed_total").Value())
		res.metrics[p+"backfill_attempts"] = float64(reg.Counter("sched_backfill_attempts_total").Value())
		if passes > 0 {
			res.metrics[p+"ns_per_pass"] = float64(run.Nanoseconds()) / float64(passes)
		}
		res.check(passes > 0, "arm %s ran no scheduling passes", sp.Name)
	}
	res.metrics["tournament.trace_overhead"] = wall/median(untraced) - 1
	e.printf("reconcile tournament: arms alone sum to %.4f s on one core each; traced tournament_s %.4f s with %d arms on %d cores (ideal %.4f s, gap %+.4f s); untraced median %.4f s, tracing overhead %+.2f%%; setup_s %.4f s (tracegen.generate_s %.4f s re-timed)",
		serial, wall, len(in.Specs), runtime.GOMAXPROCS(0), serial/float64(runtime.GOMAXPROCS(0)),
		wall-serial/float64(runtime.GOMAXPROCS(0)), median(untraced), 100*(wall/median(untraced)-1),
		setup, res.metrics["tracegen.generate_s"])
	return res, nil
}

func writeMeta(dir string, meta any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "meta.json"), meta)
}
