package main

import (
	"sync"
	"time"
)

// sample is one finished request.
type sample struct {
	req     request
	latency time.Duration // from when it was due until the reply was read
	late    time.Duration // how late the generator sent it while a connection was free
	sent    time.Duration // offset at which it was sent
	wire    time.Duration // from send until the reply was read
	failed  bool
}

// timing derives a request's latency and the generator's lateness from
// its offsets in the phase: due is when it should have been sent, picked
// when a connection was free to take it, sent when it went out and done
// when its reply was read. Latency counts from due, so a stall charges
// every request queued behind it; lateness counts only the delay the
// generator itself added after both the due time and a free connection.
func timing(due, picked, sent, done time.Duration) (latency, late time.Duration) {
	return done - due, sent - max(due, picked)
}

// sendFunc issues the i-th request of a phase; false marks it failed.
type sendFunc func(i int, r request) bool

// runOpenLoop sends the schedule over conns connections: each connection
// takes the next request in due order, waits until it is due and sends
// it. The schedule never waits for replies, so a slow reply delays only
// the requests queued behind it on the busy connections.
func runOpenLoop(schedule []request, conns int, send sendFunc) []sample {
	return runLoop(schedule, conns, send, true)
}

// runClosedLoop sends the requests back to back over conns connections
// and returns the samples and the wall time of the whole list.
func runClosedLoop(reqs []request, conns int, send sendFunc) ([]sample, time.Duration) {
	t0 := time.Now()
	s := runLoop(reqs, conns, send, false)
	return s, time.Since(t0)
}

func runLoop(reqs []request, conns int, send sendFunc, paced bool) []sample {
	out := make([]sample, len(reqs))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				picked := time.Since(start)
				if !paced {
					r.due = picked
				} else if wait := r.due - picked; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := send(i, r)
				done := time.Since(start)
				lat, late := timing(r.due, picked, sent, done)
				out[i] = sample{req: r, latency: lat, late: late, sent: sent, wire: done - sent, failed: !ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// latenciesOf returns the latencies, in ms, of the successful samples of
// one kind.
func latenciesOf(ss []sample, kind reqKind) latencies {
	var out latencies
	for _, s := range ss {
		if s.req.kind == kind && !s.failed {
			out = append(out, ms(s.latency))
		}
	}
	return out
}
