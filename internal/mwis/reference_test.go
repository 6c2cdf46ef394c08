package mwis

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The bitset heuristic below is the one the CSR heuristic replaced, kept as
// the reference the differential tests hold Greedy and LocalSearch to: both
// must return the same slices, element for element.

type refBitset []uint64

func newRefBitset(n int) refBitset { return make(refBitset, (n+63)/64) }

func (b refBitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b refBitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b refBitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b refBitset) andNot(o refBitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b refBitset) forEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			f(i)
			w &= w - 1
		}
	}
}

// refProblem is the reference's graph: one adjacency bitset per vertex.
type refProblem struct {
	n       int
	weights []float64
	adj     []refBitset
}

// newRefProblem builds the reference graph from an edge list; repeated
// edges collapse and self-loops are ignored.
func newRefProblem(weights []float64, edges [][2]int) *refProblem {
	n := len(weights)
	p := &refProblem{n: n, weights: weights, adj: make([]refBitset, n)}
	for i := range p.adj {
		p.adj[i] = newRefBitset(n)
	}
	for _, e := range edges {
		if e[0] != e[1] {
			p.adj[e[0]].set(e[1])
			p.adj[e[1]].set(e[0])
		}
	}
	return p
}

func refGreedy(p *refProblem) []int {
	remaining := newRefBitset(p.n)
	for i := 0; i < p.n; i++ {
		if p.weights[i] > 0 {
			remaining.set(i)
		}
	}
	var out []int
	for {
		best, bestScore := -1, math.Inf(-1)
		remaining.forEach(func(i int) {
			deg := 0
			p.adj[i].forEach(func(j int) {
				if remaining.has(j) {
					deg++
				}
			})
			score := p.weights[i] / float64(deg+1)
			if score > bestScore {
				best, bestScore = i, score
			}
		})
		if best < 0 {
			break
		}
		out = append(out, best)
		remaining.clear(best)
		remaining.andNot(p.adj[best])
	}
	sort.Ints(out)
	return out
}

func refLocalSearch(p *refProblem, init []int) []int {
	in := newRefBitset(p.n)
	for _, v := range init {
		in.set(v)
	}
	improved := true
	for improved {
		improved = false
		for v := 0; v < p.n; v++ {
			if in.has(v) || p.weights[v] <= 0 {
				continue
			}
			if !refConflicts(p, in, v) {
				in.set(v)
				improved = true
			}
		}
		for v := 0; v < p.n; v++ {
			if in.has(v) {
				continue
			}
			blocker := -1
			ok := true
			p.adj[v].forEach(func(j int) {
				if !in.has(j) {
					return
				}
				if blocker == -1 {
					blocker = j
				} else if blocker != j {
					ok = false
				}
			})
			if ok && blocker >= 0 && p.weights[v] > p.weights[blocker]+1e-15 {
				in.clear(blocker)
				in.set(v)
				improved = true
			}
		}
	}
	var out []int
	in.forEach(func(i int) { out = append(out, i) })
	return out
}

func refConflicts(p *refProblem, in refBitset, v int) bool {
	found := false
	p.adj[v].forEach(func(j int) {
		if in.has(j) {
			found = true
		}
	})
	return found
}

// randomInstance draws a graph on 1 to 220 vertices from 0 to 8n random
// edge draws (repeats and self-loops included) with weights that hold
// zeros, exact ties and, now and then, negatives.
func randomInstance(rng *rand.Rand) ([]float64, [][2]int) {
	n := 1 + rng.Intn(220)
	weights := make([]float64, n)
	mode := rng.Intn(3)
	for i := range weights {
		switch {
		case rng.Intn(8) == 0:
			// zero
		case mode == 0:
			weights[i] = rng.Float64()
		case mode == 1:
			weights[i] = float64(1 + rng.Intn(4)) // many exact ties
		default:
			weights[i] = float64(rng.Intn(5)-1) / 4 // ties, zeros, negatives
		}
	}
	edges := make([][2]int, rng.Intn(8*n+1))
	for k := range edges {
		edges[k] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return weights, edges
}

// randomSubset draws each vertex with a random probability, in shuffled
// order, so the set is usually dependent.
func randomSubset(rng *rand.Rand, n int) []int {
	p := rng.Float64()
	var set []int
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			set = append(set, v)
		}
	}
	rng.Shuffle(len(set), func(a, b int) { set[a], set[b] = set[b], set[a] })
	return set
}

const referenceGraphs = 10_000

func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < referenceGraphs; trial++ {
		weights, edges := randomInstance(rng)
		got := Greedy(problemFromEdges(weights, edges))
		want := refGreedy(newRefProblem(weights, edges))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %d edge draws): Greedy = %v, reference %v",
				trial, len(weights), len(edges), got, want)
		}
	}
}

func TestLocalSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < referenceGraphs; trial++ {
		weights, edges := randomInstance(rng)
		p, ref := problemFromEdges(weights, edges), newRefProblem(weights, edges)
		for _, init := range [][]int{refGreedy(ref), randomSubset(rng, len(weights))} {
			got := LocalSearch(p, slices.Clone(init))
			want := refLocalSearch(ref, init)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d, %d edge draws) from %v: LocalSearch = %v, reference %v",
					trial, len(weights), len(edges), init, got, want)
			}
		}
	}
}
