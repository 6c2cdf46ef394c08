package mwis

import (
	"math"
	"slices"
	"sync"

	"after/internal/geom"
)

// SolveCircularArc computes an exact maximum-weight independent set for a
// circular-arc graph in O(n log n + c·n) time, c being the number of arcs
// that cross angle 0. Static occlusion graphs are exactly circular-arc
// graphs (Sec. III-B), so while MWIS is NP-hard on general geometric
// intersection graphs (Theorem 1), the single-target single-step instances
// admit this exact solver — the quality layer's per-step oracle.
//
// arcs[i] is vertex i's view arc and weights[i] its utility; entries with
// non-positive weight are ignored. Two arcs conflict exactly when
// geom.Arc.Overlaps says so: arcs are closed, with its 1e-12 slack, so
// touching arcs conflict. Returns the chosen vertices (sorted) and their
// total weight.
//
// The arcs that cover angle 0 all overlap there, so a set holds at most one
// of them. Every other arc unrolls onto [0, 2π] and is sorted by end once.
// Weighted interval scheduling over that order solves the case "no crossing
// arc chosen"; the same order restricted to the gap a crossing arc leaves
// solves "that arc chosen". Only the winning case is traced back, and the
// working memory comes from a pool, so a call allocates only the set.
func SolveCircularArc(arcs []geom.Arc, weights []float64) ([]int, float64) {
	if len(weights) != len(arcs) {
		panic("mwis: SolveCircularArc weight/arc length mismatch")
	}
	s := circularScratches.Get().(*circularScratch)
	defer circularScratches.Put(s)
	cross, keys := s.cross[:0], s.keys[:0]
	for i, a := range arcs {
		switch {
		case weights[i] <= 0:
		case a.Full() || a.Contains(0):
			cross = append(cross, i)
		default:
			// Fixed-point end (2³²−1 units per turn) above the index.
			end := geom.NormalizeAngle(a.Center-a.HalfWidth) + 2*a.HalfWidth
			keys = append(keys, uint64(end*((1<<32-1)/(2*math.Pi)))<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	// Truncation keeps the key order monotone in the exact end, so one
	// insertion pass only reorders runs of equal keys.
	ivs := s.ivs[:0]
	for _, key := range keys {
		i := int(uint32(key))
		start := geom.NormalizeAngle(arcs[i].Center - arcs[i].HalfWidth)
		iv := interval{start, start + 2*arcs[i].HalfWidth, weights[i], i}
		k := len(ivs)
		ivs = append(ivs, iv)
		for ; k > 0 && ivs[k-1].end > iv.end; k-- {
			ivs[k] = ivs[k-1]
		}
		ivs[k] = iv
	}
	// prev[k] counts the arcs that end before arc k starts: the ones it
	// can join.
	prev := s.prev[:0]
	for k, iv := range ivs {
		lo, hi := 0, k
		for lo < hi {
			if mid := (lo + hi) / 2; ivs[mid].end < iv.start-overlapSlack {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		prev = append(prev, int32(lo))
	}
	s.cross, s.keys, s.ivs, s.prev = cross, keys, ivs, prev

	lo, hi := math.Inf(-1), math.Inf(1)
	best, bestW := -1, s.schedule(lo, hi)
	for _, a := range cross {
		alo, ahi := gap(arcs[a])
		if w := s.schedule(alo, ahi) + weights[a]; w > bestW {
			best, bestW, lo, hi = a, w, alo, ahi
		}
	}
	set := s.trace(lo, hi)
	if best >= 0 {
		set = append(set, best)
	}
	slices.Sort(set)
	s.set = set
	return slices.Clone(set), bestW
}

// overlapSlack is geom.Arc.Overlaps's tolerance: arcs closer than it
// conflict.
const overlapSlack = 1e-12

// gap returns the open stretch (lo, hi) of the unrolled circle that a
// crossing arc leaves free: it covers [c−h, c+h] around angle 0, with its
// centre c taken in (−π, π].
func gap(a geom.Arc) (lo, hi float64) {
	c := geom.AngleDiff(0, a.Center)
	return c + a.HalfWidth + overlapSlack, 2*math.Pi + c - a.HalfWidth - overlapSlack
}

// interval is one unrolled arc that does not cross angle 0.
type interval struct {
	start, end, weight float64
	id                 int
}

// circularScratch is SolveCircularArc's working memory: the crossing arcs,
// the sort keys, the other arcs in end order with their predecessor
// counts, the scheduling table and the traced set.
type circularScratch struct {
	cross []int
	keys  []uint64
	ivs   []interval
	prev  []int32
	dp    []float64
	set   []int
}

var circularScratches = sync.Pool{New: func() any { return new(circularScratch) }}

// schedule runs weighted interval scheduling over the arcs, in end order,
// that lie inside (lo, hi), leaving dp[k] the best weight among the first k.
func (s *circularScratch) schedule(lo, hi float64) float64 {
	dp := append(s.dp[:0], 0)
	best := 0.0
	for k, iv := range s.ivs {
		if iv.end >= hi {
			break
		}
		if w := iv.weight + dp[s.prev[k]]; iv.start > lo && w > best {
			best = w
		}
		dp = append(dp, best)
	}
	s.dp = dp
	return best
}

// trace reruns schedule(lo, hi) and recovers the set behind its optimum.
func (s *circularScratch) trace(lo, hi float64) []int {
	s.schedule(lo, hi)
	set := s.set[:0]
	for k := len(s.dp) - 1; k > 0; {
		if iv := s.ivs[k-1]; iv.start > lo && iv.weight+s.dp[s.prev[k-1]] > s.dp[k-1] {
			set = append(set, iv.id)
			k = int(s.prev[k-1])
		} else {
			k--
		}
	}
	return set
}
