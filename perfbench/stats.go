package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted: the smallest sample
// with at least q·n samples at or below it. sorted must be ascending.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return sorted[clamp(i, 0, n-1)]
}

// tail returns the want-quantile of sorted (ascending), lowered to the highest
// quantile that still has at least minBeyond samples beyond it, and the
// quantile actually reported. With fewer than minBeyond+1 samples no quantile
// qualifies and the minimum is reported.
func tail(sorted []float64, want float64) (value, q float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(want*float64(n)-1e-9)) - 1
	i = clamp(i, 0, n-1-minBeyond)
	if i < 0 {
		i = 0
	}
	return sorted[i], float64(i+1) / float64(n)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is Python's statistics.median: the mean of the middle pair for an
// even count.
func median(values []float64) float64 {
	d := sortedCopy(values)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a closed-open time range in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// covered returns how much of parent the union of kids covers. Kids may
// overlap each other and stick out of parent; only the part inside parent
// counts, and overlapping parts count once.
func covered(parent interval, kids []interval) int64 {
	clipped := make([]interval, 0, len(kids))
	for _, k := range kids {
		k.start = max(k.start, parent.start)
		k.end = min(k.end, parent.end)
		if k.end > k.start {
			clipped = append(clipped, k)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, k := range clipped {
		switch {
		case i == 0:
			cur = k
		case k.start <= cur.end:
			cur.end = max(cur.end, k.end)
		default:
			total += cur.dur()
			cur = k
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, kids []interval) int64 {
	return parent.dur() - covered(parent, kids)
}

// tally counts operations attempted and the ones that failed. For serving, a
// request succeeds only with a fresh 200 answer: sheds, errors and degraded
// (hold-state) serves all count as failures.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t tally) okShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// subWindowSeconds is the length of the sub-windows a serving window is cut
// into. Rates and medians are taken per sub-window and the run reports
// their median, so a few seconds of interference from outside the process
// (CPU steal on a shared host) move one or two sub-windows, not the result.
const subWindowSeconds = 2.0

func subWindows(seconds float64) int { return max(1, int(seconds/subWindowSeconds+0.5)) }

// subWindowOf returns the index of the sub-window [marks[j], marks[j+1])
// holding t, clamped to the first and last sub-window.
func subWindowOf(marks []mark, t int64) int {
	j := sort.Search(len(marks), func(i int) bool { return marks[i].at > t }) - 1
	return clamp(j, 0, len(marks)-2)
}

// profile lists a latency distribution's quantiles for the detail record.
func profile(sorted []float64) map[string]float64 {
	out := map[string]float64{}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1} {
		out[fmt.Sprintf("p%g", 100*q)] = quantile(sorted, q)
	}
	return out
}
