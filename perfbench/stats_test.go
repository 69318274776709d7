package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatencyTailSubstitutesSupportedPercentile(t *testing.T) {
	l := make(latencies, 200)
	for i := range l {
		l[i] = float64(i + 1)
	}
	v, at, note := l.tail(99)
	if at != 95 || v != 190 || !strings.Contains(note, "p95") {
		t.Errorf("200 samples: tail = %v at p%g (%q), want 190 at p95", v, at, note)
	}
	v, at, note = l[:5].tail(99)
	if at != 100 || v != 5 || note == "" {
		t.Errorf("5 samples: tail = %v at p%g (%q), want the maximum 5", v, at, note)
	}
	full := make(latencies, 1000)
	for i := range full {
		full[i] = float64(i + 1)
	}
	if v, at, note := full.tail(99); at != 99 || v != 990 || note != "" {
		t.Errorf("1000 samples: tail = %v at p%g (%q), want 990 at p99", v, at, note)
	}
}

func TestGeomeanSkipsNonPositive(t *testing.T) {
	if g := geomean([]float64{1, 100, 0, -3}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean(1, 100, 0, -3) = %v, want 10 from the positive values", g)
	}
	if g := geomean([]float64{0}); g != 0 {
		t.Errorf("geomean(0) = %v, want 0", g)
	}
}
