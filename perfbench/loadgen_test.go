package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestTimingCountsFromDue(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		name                    string
		due, picked, sent, done time.Duration
		latency, late           time.Duration
	}{
		// A free connection waited for the due time; the sleep overshot.
		{"on time", 10 * ms, 5 * ms, 11 * ms, 15 * ms, 5 * ms, 1 * ms},
		// Both connections were busy until 30 ms: the 20 ms wait is
		// latency charged to the stall, not generator lateness.
		{"queued", 10 * ms, 30 * ms, 30 * ms, 35 * ms, 25 * ms, 0},
		// Picked while late, and the generator added 2 ms more.
		{"queued and late", 10 * ms, 30 * ms, 32 * ms, 35 * ms, 25 * ms, 2 * ms},
	} {
		lat, late := timing(c.due, c.picked, c.sent, c.done)
		if lat != c.latency || late != c.late {
			t.Errorf("%s: timing = %v, %v; want %v, %v", c.name, lat, late, c.latency, c.late)
		}
	}
}

func TestOpenLoopChargesAStallToRequestsBehindIt(t *testing.T) {
	schedule := []request{
		{due: 0, kind: kindTail},
		{due: 10 * time.Millisecond, kind: kindHot},
		{due: 20 * time.Millisecond, kind: kindHot},
	}
	var sent atomic.Int32
	ss := runOpenLoop(schedule, 1, func(i int, r request) bool {
		sent.Add(1)
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return true
	})
	if sent.Load() != 3 || len(ss) != 3 {
		t.Fatalf("sent %d requests, got %d samples; want 3", sent.Load(), len(ss))
	}
	// The second request was due at 10 ms but its connection was busy
	// until ~60 ms: its latency counts from due, its lateness stays small.
	if ss[1].latency < 50*time.Millisecond {
		t.Errorf("request behind the stall: latency %v, want ≥ 50ms", ss[1].latency)
	}
	if ss[1].late > 20*time.Millisecond {
		t.Errorf("request behind the stall: lateness %v charged to the generator", ss[1].late)
	}
	if ss[1].wire > 20*time.Millisecond {
		t.Errorf("request behind the stall: wire time %v includes the wait", ss[1].wire)
	}
}

func TestClosedLoopSendsEveryRequestOnce(t *testing.T) {
	reqs := make([]request, 100)
	seen := make([]atomic.Int32, len(reqs))
	ss, wall := runClosedLoop(reqs, 4, func(i int, r request) bool { seen[i].Add(1); return i%10 != 0 })
	failed := 0
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("request %d sent %d times", i, seen[i].Load())
		}
		if ss[i].failed {
			failed++
		}
	}
	if failed != 10 || wall <= 0 {
		t.Errorf("failed %d, wall %v; want 10 failed and a positive wall time", failed, wall)
	}
}
