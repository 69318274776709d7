package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// tailPercentiles are the percentiles a tail may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest of tailPercentiles that has at
// least minBeyond of n samples beyond it, and false when even the median
// has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// median is the midpoint of xs (mean of the middle pair for even
// lengths), leaving xs unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects one operation kind's latencies in milliseconds.
type latencies []float64

// tail reports the requested percentile when the sample count supports
// it, and otherwise the highest percentile that it supports, with a
// note naming the substitution.
func (l latencies) tail(want float64) (v, at float64, note string) {
	at = want
	if p, ok := tailPercentile(len(l)); !ok {
		return percentile(l, 100), 100, fmt.Sprintf("only %d samples: reporting the maximum", len(l))
	} else if p < want {
		at = p
		note = fmt.Sprintf("%d samples support p%g at most", len(l), p)
	}
	return percentile(l, at), at, note
}

// geomean is the geometric mean of the positive values in xs; 0 when
// there are none.
func geomean(xs []float64) float64 {
	logs, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// rounded keeps four significant digits, for printing samples.
func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i], _ = strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
	}
	return out
}
