package main

import (
	"math"
	"sort"
)

// samples holds raw durations or values; every statistic is an exact order
// statistic over the kept values, never a bucketed estimate.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the nearest-rank index (1-based) of the p-th percentile among n
// samples; the epsilon keeps 99.9% of 10000 at 9990 despite binary floats.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of s,
// or 0 for an empty set. Nearest rank returns a value that was measured,
// so a percentile never reads better than any sample at or above it.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[rank(p, len(s))-1]
}

// median is the mean of the two middle values for an even count.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	m := len(o) / 2
	if len(o)%2 == 1 {
		return o[m]
	}
	return (o[m-1] + o[m]) / 2
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailPercentiles are the candidates for "the highest percentile that has
// at least ten samples beyond it".
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie above a reported tail percentile;
// with fewer, the percentile is the maximum under another name.
const minBeyond = 10

// highestPercentile returns the largest of tailPercentiles with at least
// minBeyond samples strictly beyond its rank, and ok=false when even the
// lowest candidate has too few.
func (s samples) highestPercentile() (p, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(s)-rank(p, len(s)) >= minBeyond {
			return p, s.percentile(p), true
		}
	}
	return 0, 0, false
}

// tail returns percentile p only when at least minBeyond samples lie beyond
// it, and 0 otherwise: a tail metric with too few samples is omitted, not
// approximated by the maximum.
func (s samples) tail(p float64) float64 {
	if len(s)-rank(p, len(s)) < minBeyond {
		return 0
	}
	return s.percentile(p)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is how the
// benchmark contract measures run-to-run spread.
func (s samples) quartileSpread() float64 {
	n := len(s)
	med := s.median()
	if n < 2 || med == 0 {
		return 0
	}
	o := s.sorted()
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (o[j-1]*(4-delta) + o[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// interval is a half-open span of trace time in nanoseconds.
type interval struct{ start, end int64 }

// clip restricts iv to [lo, hi); ok=false when nothing remains.
func (iv interval) clip(lo, hi int64) (interval, bool) {
	if iv.start < lo {
		iv.start = lo
	}
	if iv.end > hi {
		iv.end = hi
	}
	return iv, iv.end > iv.start
}

// unionLen is the total length covered by at least one interval. Overlapping
// children are counted once: a parent whose forty children ran in parallel
// was covered for the time at least one ran, not for the sum of their
// durations.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	o := append([]interval(nil), ivs...)
	sort.Slice(o, func(i, j int) bool { return o[i].start < o[j].start })
	var total int64
	cur := o[0]
	for _, iv := range o[1:] {
		if iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		total += cur.end - cur.start
		cur = iv
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if iv, ok := c.clip(parent.start, parent.end); ok {
			clipped = append(clipped, iv)
		}
	}
	return parent.end - parent.start - unionLen(clipped)
}
