package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testMix(seed int64) *mix {
	users := make([]string, 300)
	for i := range users {
		users[i] = "user" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	return newMix(rand.New(rand.NewSource(seed)), users, serveStart, 27)
}

func TestSchedulesAreDeterministicPerSeed(t *testing.T) {
	a := openLoopSchedule(7, testMix(7), 300, 5*time.Second, time.Second)
	b := openLoopSchedule(7, testMix(7), 300, 5*time.Second, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two open-loop schedules")
	}
	if c := openLoopSchedule(8, testMix(8), 300, 5*time.Second, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same open-loop schedule")
	}
	x := closedLoopRequests(7, testMix(7), 1000, 300)
	if y := closedLoopRequests(7, testMix(7), 1000, 300); !reflect.DeepEqual(x, y) {
		t.Fatal("the same seed gave two closed-loop lists")
	}
	if n := countKinds(x)[kindIngest]; x[300].kind != kindIngest || n != 3 {
		t.Errorf("closed loop: %d ingests, request 300 is %s; want 3, the first after 300 reads", n, x[300].kind)
	}
}

func TestSplitScheduleKeepsEveryRequestInOrder(t *testing.T) {
	s := openLoopSchedule(4, testMix(4), 300, 8*time.Second, time.Second)
	parts := splitSchedule(s, 8*time.Second, 4)
	n := 0
	for k, p := range parts {
		for i, r := range p {
			if r.due < 0 || r.due >= 2*time.Second {
				t.Fatalf("segment %d request %d due at %v, outside [0, 2s)", k, i, r.due)
			}
			if r.kind != s[n].kind || r.path != s[n].path || r.due+time.Duration(k)*2*time.Second != s[n].due {
				t.Fatalf("segment %d request %d is not schedule request %d rebased", k, i, n)
			}
			n++
		}
	}
	if n != len(s) {
		t.Errorf("segments hold %d requests, the schedule %d", n, len(s))
	}
}

func TestOpenLoopIsPoissonAtTheOfferedRate(t *testing.T) {
	const rate, secs = 300.0, 200
	s := openLoopSchedule(3, testMix(3), rate, secs*time.Second, time.Second)
	n := countKinds(s)
	reads := n[kindHot] + n[kindTail] + n[kindFigure]
	if got := float64(reads) / secs; got < 0.97*rate || got > 1.03*rate {
		t.Errorf("read rate %.1f/s, want %.0f ±3%%", got, rate)
	}
	if n[kindIngest] != secs-1 {
		t.Errorf("%d ingests in %d s at one per second", n[kindIngest], secs)
	}
	// Exponential gaps: the share of gaps above the mean is e^-1.
	var prev time.Duration
	var gaps, long int
	perSec := rate
	meanGap := time.Duration(float64(time.Second) / perSec)
	for _, r := range s {
		if r.kind == kindIngest {
			continue
		}
		if r.due-prev > meanGap {
			long++
		}
		prev = r.due
		gaps++
	}
	if share := float64(long) / float64(gaps); share < 0.34 || share > 0.40 {
		t.Errorf("share of gaps above the mean %.3f, want e^-1 ≈ 0.368", share)
	}
	for i := 1; i < len(s); i++ {
		if s[i].due < s[i-1].due {
			t.Fatalf("schedule out of due order at %d", i)
		}
	}
}

func TestMixSharesAndWorkingSets(t *testing.T) {
	m := testMix(5)
	r := rand.New(rand.NewSource(5))
	z := userZipf(r, len(m.users))
	counts := map[reqKind]int{}
	tail := map[string]bool{}
	users := map[string]int{}
	const n = 20000
	for range n {
		q := m.next(r, z)
		counts[q.kind]++
		if q.kind == kindTail {
			tail[q.path] = true
			qq, _, err := queryOf(q.path)
			if err != nil {
				t.Fatal(err)
			}
			users[qq.User]++
		}
	}
	for kind, want := range map[reqKind]float64{kindHot: hotShare, kindFigure: figureShare, kindTail: 1 - hotShare - figureShare} {
		if got := float64(counts[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
	if len(m.hot) != hotKeys || hotKeys >= 1024 {
		t.Errorf("%d hot keys; the hot set must fit the 1,024-entry cache", len(m.hot))
	}
	if len(tail) <= 1024 {
		t.Errorf("%d distinct long-tail keys; they must outnumber the 1,024-entry cache", len(tail))
	}
	// Zipf over users: the most active user is drawn far more often than
	// the tenth.
	if users[m.users[0]] < 5*users[m.users[9]] {
		t.Errorf("user draws not skewed: rank 0 %d, rank 9 %d", users[m.users[0]], users[m.users[9]])
	}
}
