// Package mwis solves Maximum Weighted Independent Set problems on occlusion
// graphs (Definition 5). The AFTER problem reduces from MWIS on geometric
// intersection graphs (Theorem 1), so MWIS solvers serve two roles here:
//
//   - the hard-constraint COMURNet stand-in, which must find a maximum-
//     preference, strictly occlusion-free rendering set each step; and
//   - an upper-bound oracle used by tests and benchmarks to quantify how
//     close learned recommenders come to optimal single-step quality.
//
// A Problem views the frame's symmetric CSR adjacency. The greedy and
// local-search heuristics walk it with incremental degree and neighbour
// counts, so a pick or a move costs O(N + E) at most. The exact solver is
// branch and bound over bitsets with a remaining-weight bound; it is
// intentionally exponential in the worst case (that is the point of the
// paper's practicality argument) but accepts a node budget so callers keep
// control of wall-clock time.
package mwis

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Problem is an undirected vertex-weighted graph held as one symmetric CSR:
// vertex i's neighbours are col[rowPtr[i]:rowPtr[i+1]].
type Problem struct {
	weights     []float64
	rowPtr, col []int32
}

type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) andNot(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// forEach calls f for every set bit in ascending order.
func (b bitset) forEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			f(i)
			w &= w - 1
		}
	}
}

// NewProblem returns the problem on len(weights) vertices whose adjacency is
// the symmetric CSR (rowPtr, col), such as an occlusion frame's
// AdjacencyCSR. It views all three slices without copying them, so the
// caller must not change them while the problem is in use. Each row must
// list distinct neighbours, and j must be in row i exactly when i is in
// row j. NewProblem panics on a malformed CSR: a row pointer of the wrong
// length or not running from 0 up to len(col), a column out of range, or a
// self-loop.
func NewProblem(weights []float64, rowPtr, col []int32) *Problem {
	n := len(weights)
	if len(rowPtr) != n+1 || rowPtr[0] != 0 || int(rowPtr[n]) != len(col) {
		panic(fmt.Sprintf("mwis: %d row pointers for %d vertices and %d columns", len(rowPtr), n, len(col)))
	}
	p := &Problem{weights: weights, rowPtr: rowPtr, col: col}
	for i := 0; i < n; i++ {
		if lo, hi := rowPtr[i], rowPtr[i+1]; lo > hi || int(hi) > len(col) {
			panic(fmt.Sprintf("mwis: row %d spans [%d,%d) of %d columns", i, lo, hi, len(col)))
		}
		for _, j := range p.neighbors(i) {
			if j < 0 || int(j) >= n || int(j) == i {
				panic(fmt.Sprintf("mwis: edge (%d,%d) out of range or a self-loop", i, j))
			}
		}
	}
	return p
}

// neighbors returns row i of the adjacency.
func (p *Problem) neighbors(i int) []int32 { return p.col[p.rowPtr[i]:p.rowPtr[i+1]] }

// N returns the vertex count.
func (p *Problem) N() int { return len(p.weights) }

// Weight returns the weight of vertex i.
func (p *Problem) Weight(i int) float64 { return p.weights[i] }

// HasEdge reports whether {i, j} is an edge.
func (p *Problem) HasEdge(i, j int) bool { return slices.Contains(p.neighbors(i), int32(j)) }

// Degree returns the degree of vertex i.
func (p *Problem) Degree(i int) int { return len(p.neighbors(i)) }

// IsIndependent reports whether set contains no adjacent pair.
func (p *Problem) IsIndependent(set []int) bool {
	for a := 0; a < len(set); a++ {
		for b := a + 1; b < len(set); b++ {
			if p.HasEdge(set[a], set[b]) {
				return false
			}
		}
	}
	return true
}

// SetWeight returns the total weight of set.
func (p *Problem) SetWeight(set []int) float64 {
	s := 0.0
	for _, v := range set {
		s += p.weights[v]
	}
	return s
}

// Greedy returns an independent set built by repeatedly taking the vertex
// maximizing weight/(degree+1) among the remaining graph — the classic
// approximation that performs well on sparse circular-arc graphs. Only
// positive-weight vertices take part, and a tie goes to the lower index.
//
// Each live vertex keeps its remaining degree and score, and a pick
// updates only the neighbours of the vertices it removes, so a pick costs
// one scan of the live vertices plus the removed vertices' degrees.
func Greedy(p *Problem) []int {
	n := p.N()
	live := make([]int32, 0, n) // ascending, the scan order
	alive := make([]bool, n)
	for i := 0; i < n; i++ {
		if p.weights[i] > 0 {
			live = append(live, int32(i))
			alive[i] = true
		}
	}
	deg := make([]int32, n)
	score := make([]float64, n)
	for _, i := range live {
		d := int32(0)
		for _, j := range p.neighbors(int(i)) {
			if alive[j] {
				d++
			}
		}
		deg[i], score[i] = d, p.weights[i]/float64(d+1)
	}
	out := make([]int, 0, len(live))
	for {
		// The scan also drops the vertices the last pick removed.
		best, bestScore := int32(-1), math.Inf(-1)
		k := 0
		for _, i := range live {
			if !alive[i] {
				continue
			}
			live[k] = i
			k++
			if score[i] > bestScore {
				best, bestScore = i, score[i]
			}
		}
		live = live[:k]
		if best < 0 {
			break
		}
		out = append(out, int(best))
		// The pick takes its live neighbours out with it. A vertex that
		// stays loses one degree per removed neighbour; the pick itself
		// has no neighbour that stays.
		alive[best] = false
		for _, u := range p.neighbors(int(best)) {
			if !alive[u] {
				continue
			}
			alive[u] = false
			for _, x := range p.neighbors(int(u)) {
				if alive[x] {
					deg[x]--
					score[x] = p.weights[x] / float64(deg[x]+1)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// LocalSearch improves an independent set with single-vertex additions and
// 1-out/1-in swaps until no improving move exists. The result is maximal
// and at least as heavy as init.
//
// Every vertex keeps the count and the index sum of its selected
// neighbours. An addition needs a count of zero; a swap needs a count of
// one, and the sum then names the one blocker. So a move is an O(1) test
// plus bookkeeping over the moved vertices' neighbours.
func LocalSearch(p *Problem, init []int) []int {
	n := p.N()
	in := make([]bool, n)
	cnt := make([]int32, n)
	sum := make([]int, n)
	size := 0
	move := func(v int, d int32) {
		in[v] = d > 0
		size += int(d)
		for _, x := range p.neighbors(v) {
			cnt[x] += d
			sum[x] += int(d) * v
		}
	}
	for _, v := range init {
		if !in[v] {
			move(v, 1)
		}
	}
	for improved := true; improved; {
		improved = false
		// Additions: any vertex with no selected neighbour and positive
		// weight.
		for v := 0; v < n; v++ {
			if in[v] || p.weights[v] <= 0 || cnt[v] != 0 {
				continue
			}
			move(v, 1)
			improved = true
		}
		// Swaps: replace one selected vertex with a heavier excluded vertex
		// whose only conflict is that vertex.
		for v := 0; v < n; v++ {
			if blocker := sum[v]; !in[v] && cnt[v] == 1 && p.weights[v] > p.weights[blocker]+1e-15 {
				move(blocker, -1)
				move(v, 1)
				improved = true
			}
		}
	}
	out := make([]int, 0, size)
	for v, on := range in {
		if on {
			out = append(out, v)
		}
	}
	return out
}

// Result carries an exact-solver outcome.
type Result struct {
	Set []int
	// Weight is the total weight of Set.
	Weight float64
	// Optimal is true when the search space was exhausted within the node
	// budget; false means Set is the best incumbent found so far.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// BranchAndBound finds a maximum-weight independent set. maxNodes bounds the
// number of explored search nodes (≤0 means 1e7); when the budget is hit the
// incumbent is returned with Optimal=false. The search is exact and, by
// design, exponential in the worst case: it is the "effective but
// unpractical" extreme of the paper's C2 dilemma.
func BranchAndBound(p *Problem, maxNodes int) Result {
	if maxNodes <= 0 {
		maxNodes = 10_000_000
	}
	// Seed the incumbent with greedy + local search so pruning bites early.
	incumbentSet := LocalSearch(p, Greedy(p))
	incumbentW := p.SetWeight(incumbentSet)

	// The node loop works on bitsets: one row per vertex, cut from one
	// block, plus the remaining set.
	n := p.N()
	words := (n + 63) / 64
	block := make(bitset, (n+1)*words)
	adj := make([]bitset, n)
	for i := range adj {
		adj[i] = block[i*words : (i+1)*words]
		for _, j := range p.neighbors(i) {
			adj[i].set(int(j))
		}
	}
	remaining := block[n*words:]
	for i := 0; i < n; i++ {
		if p.weights[i] > 0 {
			remaining.set(i)
		}
	}
	var current []int
	nodes := 0
	exhausted := true

	var rec func(rem bitset, acc float64)
	rec = func(rem bitset, acc float64) {
		if !exhausted {
			return
		}
		if nodes >= maxNodes {
			exhausted = false
			return
		}
		nodes++
		// Bound: current weight plus everything still available.
		ub := acc
		rem.forEach(func(i int) { ub += p.weights[i] })
		if ub <= incumbentW+1e-12 {
			return
		}
		// Pick the remaining vertex with the highest degree (within rem) to
		// branch on; break ties by weight.
		pick, pickDeg, pickW := -1, -1, 0.0
		rem.forEach(func(i int) {
			deg := 0
			adj[i].forEach(func(j int) {
				if rem.has(j) {
					deg++
				}
			})
			if deg > pickDeg || (deg == pickDeg && p.weights[i] > pickW) {
				pick, pickDeg, pickW = i, deg, p.weights[i]
			}
		})
		if pick < 0 {
			if acc > incumbentW {
				incumbentW = acc
				incumbentSet = append([]int(nil), current...)
			}
			return
		}
		// Branch 1: include pick.
		inclRem := rem.clone()
		inclRem.clear(pick)
		inclRem.andNot(adj[pick])
		current = append(current, pick)
		rec(inclRem, acc+p.weights[pick])
		current = current[:len(current)-1]
		// Branch 2: exclude pick.
		exclRem := rem.clone()
		exclRem.clear(pick)
		rec(exclRem, acc)
	}
	rec(remaining, 0)
	slices.Sort(incumbentSet)
	return Result{Set: incumbentSet, Weight: incumbentW, Optimal: exhausted, Nodes: nodes}
}
