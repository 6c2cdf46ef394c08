package mwis

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// builder hand-builds a Problem: AddEdge collects undirected edges, where
// repeats collapse and self-loops are ignored, and problem writes them as
// the symmetric CSR NewProblem takes. Rows keep insertion order, unlike
// the converter's ascending rows, so the tests also show that the
// heuristics do not depend on row order.
type builder struct {
	weights []float64
	rows    [][]int32
}

func newBuilder(weights []float64) *builder {
	return &builder{weights: weights, rows: make([][]int32, len(weights))}
}

func (b *builder) AddEdge(i, j int) {
	if i != j && !slices.Contains(b.rows[i], int32(j)) {
		b.rows[i] = append(b.rows[i], int32(j))
		b.rows[j] = append(b.rows[j], int32(i))
	}
}

func (b *builder) problem() *Problem {
	rowPtr := make([]int32, 1, len(b.rows)+1)
	var col []int32
	for _, row := range b.rows {
		col = append(col, row...)
		rowPtr = append(rowPtr, int32(len(col)))
	}
	return NewProblem(b.weights, rowPtr, col)
}

// problemFromEdges builds a problem from an edge list.
func problemFromEdges(weights []float64, edges [][2]int) *Problem {
	b := newBuilder(weights)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.problem()
}

// pathProblem builds a path 0-1-2-3-4 with the given weights.
func pathProblem(weights []float64) *Problem {
	var edges [][2]int
	for i := 0; i+1 < len(weights); i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return problemFromEdges(weights, edges)
}

func TestIsIndependentAndWeight(t *testing.T) {
	p := pathProblem([]float64{1, 2, 3, 4, 5})
	if !p.IsIndependent([]int{0, 2, 4}) {
		t.Error("alternating set should be independent")
	}
	if p.IsIndependent([]int{0, 1}) {
		t.Error("adjacent set reported independent")
	}
	if w := p.SetWeight([]int{0, 2, 4}); w != 9 {
		t.Errorf("SetWeight = %v", w)
	}
}

func TestBranchAndBoundPath(t *testing.T) {
	// Max weight IS on path 1,2,3,4,5 weights is {2,4} = 6? vertices 1 and 3
	// have weights 2 and 4 → {1,3}=6; {0,2,4}=1+3+5=9. Optimal is 9.
	res := BranchAndBound(pathProblem([]float64{1, 2, 3, 4, 5}), 0)
	if !res.Optimal {
		t.Fatal("tiny problem not solved to optimality")
	}
	if res.Weight != 9 {
		t.Errorf("optimal weight = %v, want 9", res.Weight)
	}
	if !pathProblem([]float64{1, 2, 3, 4, 5}).IsIndependent(res.Set) {
		t.Error("result not independent")
	}
}

func TestBranchAndBoundHeavyMiddle(t *testing.T) {
	// Middle vertex dominates: {2}=100 beats {0,2,4}? 2 conflicts with 1,3
	// only, so {0,2,4} stays independent with weight 102.
	res := BranchAndBound(pathProblem([]float64{1, 50, 100, 50, 1}), 0)
	if res.Weight != 102 {
		t.Errorf("weight = %v, want 102", res.Weight)
	}
}

func TestBranchAndBoundTriangle(t *testing.T) {
	p := problemFromEdges([]float64{3, 2, 2.5}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	res := BranchAndBound(p, 0)
	if res.Weight != 3 || len(res.Set) != 1 || res.Set[0] != 0 {
		t.Errorf("triangle result = %+v", res)
	}
}

func TestGreedyIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		b := newBuilder(w)
		for e := 0; e < n*2; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := b.problem()
		g := Greedy(p)
		if !p.IsIndependent(g) {
			t.Fatal("greedy produced dependent set")
		}
	}
}

func TestLocalSearchImprovesOrMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(30)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		b := newBuilder(w)
		for e := 0; e < n; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := b.problem()
		g := Greedy(p)
		ls := LocalSearch(p, g)
		if !p.IsIndependent(ls) {
			t.Fatal("local search produced dependent set")
		}
		if p.SetWeight(ls)+1e-12 < p.SetWeight(g) {
			t.Fatalf("local search regressed: %v < %v", p.SetWeight(ls), p.SetWeight(g))
		}
	}
}

func TestExactMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10) // brute force over ≤ 2^12 subsets
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		b := newBuilder(w)
		for e := 0; e < n; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := b.problem()
		res := BranchAndBound(p, 0)
		if !res.Optimal {
			t.Fatal("small instance not optimal")
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			var set []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					set = append(set, i)
				}
			}
			if p.IsIndependent(set) {
				if s := p.SetWeight(set); s > best {
					best = s
				}
			}
		}
		if math.Abs(res.Weight-best) > 1e-9 {
			t.Fatalf("trial %d: B&B=%v brute=%v", trial, res.Weight, best)
		}
	}
}

func TestNodeBudgetReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 60
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	b := newBuilder(w)
	for e := 0; e < 3*n; e++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	p := b.problem()
	res := BranchAndBound(p, 50)
	if !p.IsIndependent(res.Set) {
		t.Error("budgeted result not independent")
	}
	// Must be at least as good as the greedy seed.
	if res.Weight+1e-12 < p.SetWeight(LocalSearch(p, Greedy(p))) {
		t.Error("budgeted result worse than its own seed")
	}
	if res.Nodes > 51 {
		t.Errorf("explored %d nodes with budget 50", res.Nodes)
	}
}

func TestZeroWeightVerticesSkipped(t *testing.T) {
	p := problemFromEdges([]float64{0, 1, 0}, nil)
	res := BranchAndBound(p, 0)
	if res.Weight != 1 || len(res.Set) != 1 || res.Set[0] != 1 {
		t.Errorf("result = %+v", res)
	}
	g := Greedy(p)
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("greedy = %v", g)
	}
}

// TestSelfLoopIgnored: a hand-built graph drops self-loops before they
// reach the CSR, so both vertices stay selectable.
func TestSelfLoopIgnored(t *testing.T) {
	p := problemFromEdges([]float64{1, 1}, [][2]int{{0, 0}})
	if p.HasEdge(0, 0) {
		t.Error("self loop stored")
	}
	res := BranchAndBound(p, 0)
	if res.Weight != 2 {
		t.Errorf("weight = %v", res.Weight)
	}
}

// TestEdgeOutOfRangePanics: NewProblem refuses every malformed CSR, an edge
// out of range or a self-loop among them.
func TestEdgeOutOfRangePanics(t *testing.T) {
	w := []float64{1, 1}
	for _, tc := range []struct {
		name        string
		rowPtr, col []int32
	}{
		{"short row pointer", []int32{0, 1}, []int32{1}},
		{"long row pointer", []int32{0, 1, 2, 2}, []int32{1, 0}},
		{"row pointer not from 0", []int32{1, 1, 2}, []int32{1, 0}},
		{"row pointer short of the columns", []int32{0, 1, 1}, []int32{1, 0}},
		{"row pointer falls", []int32{0, 3, 2}, []int32{1, 0}},
		{"column too big", []int32{0, 1, 2}, []int32{3, 0}},
		{"column negative", []int32{0, 1, 2}, []int32{1, -1}},
		{"self-loop", []int32{0, 1, 1}, []int32{0}},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.HasPrefix(r, "mwis: ") {
					t.Errorf("%s: NewProblem on %v %v did not refuse it (%q)", tc.name, tc.rowPtr, tc.col, r)
				}
			}()
			NewProblem(w, tc.rowPtr, tc.col)
		}()
	}
}

func TestEmptyGraphTakesAll(t *testing.T) {
	p := problemFromEdges([]float64{1, 2, 3}, nil)
	res := BranchAndBound(p, 0)
	if res.Weight != 6 || len(res.Set) != 3 {
		t.Errorf("result = %+v", res)
	}
}

// TestAccessors reads a CSR-built problem back through its accessors; the
// rows are the caller's, viewed rather than copied.
func TestAccessors(t *testing.T) {
	rowPtr, col := []int32{0, 1, 2, 2}, []int32{1, 0}
	p := NewProblem([]float64{1.5, 2.5, 4}, rowPtr, col)
	if p.N() != 3 {
		t.Errorf("N = %d", p.N())
	}
	if p.Weight(1) != 2.5 {
		t.Errorf("Weight = %v", p.Weight(1))
	}
	if p.Degree(0) != 1 || p.Degree(1) != 1 || p.Degree(2) != 0 {
		t.Error("Degree wrong")
	}
	if !p.HasEdge(1, 0) || !p.HasEdge(0, 1) || p.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if &p.neighbors(1)[0] != &col[1] {
		t.Error("row 1 copied, not viewed")
	}
}
