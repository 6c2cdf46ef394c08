package mwis

import (
	"math"
	"math/rand"
	"testing"

	"after/internal/geom"
)

// randomArcs draws n random arcs and weights, mimicking view arcs of users
// scattered in a room.
func randomArcs(rng *rand.Rand, n int) ([]geom.Arc, []float64) {
	arcs := make([]geom.Arc, n)
	weights := make([]float64, n)
	for i := range arcs {
		arcs[i] = geom.NewArc(rng.Float64()*2*math.Pi, 0.02+rng.Float64()*0.6)
		weights[i] = rng.Float64()
	}
	return arcs, weights
}

// problemFromArcs materializes the intersection graph for the B&B solver.
func problemFromArcs(arcs []geom.Arc, weights []float64) *Problem {
	b := newBuilder(weights)
	for i := range arcs {
		for j := i + 1; j < len(arcs); j++ {
			if arcs[i].Overlaps(arcs[j]) {
				b.AddEdge(i, j)
			}
		}
	}
	return b.problem()
}

// TestCircularArcMatchesBranchAndBound cross-checks the polynomial solver
// against the exact B&B on random instances.
func TestCircularArcMatchesBranchAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(16)
		arcs, weights := randomArcs(rng, n)
		set, w := SolveCircularArc(arcs, weights)
		prob := problemFromArcs(arcs, weights)
		if !prob.IsIndependent(set) {
			t.Fatalf("trial %d: circular-arc set not independent", trial)
		}
		if math.Abs(prob.SetWeight(set)-w) > 1e-9 {
			t.Fatalf("trial %d: reported weight %v != set weight %v", trial, w, prob.SetWeight(set))
		}
		res := BranchAndBound(prob, 0)
		if !res.Optimal {
			t.Fatal("B&B did not finish")
		}
		if math.Abs(w-res.Weight) > 1e-9 {
			t.Fatalf("trial %d: circular %v != B&B %v", trial, w, res.Weight)
		}
	}
}

func TestCircularArcDisjointTakesAll(t *testing.T) {
	arcs := []geom.Arc{
		geom.NewArc(0, 0.1),
		geom.NewArc(math.Pi/2, 0.1),
		geom.NewArc(math.Pi, 0.1),
		geom.NewArc(3*math.Pi/2, 0.1),
	}
	weights := []float64{1, 2, 3, 4}
	set, w := SolveCircularArc(arcs, weights)
	if len(set) != 4 || w != 10 {
		t.Errorf("set=%v w=%v", set, w)
	}
}

func TestCircularArcFullArcDominates(t *testing.T) {
	// A full-circle arc with huge weight should be chosen alone.
	arcs := []geom.Arc{
		{Center: 0, HalfWidth: math.Pi},
		geom.NewArc(1, 0.1),
		geom.NewArc(3, 0.1),
	}
	set, w := SolveCircularArc(arcs, []float64{10, 1, 1})
	if len(set) != 1 || set[0] != 0 || w != 10 {
		t.Errorf("set=%v w=%v", set, w)
	}
	// With small weight it should lose to the two disjoint arcs.
	set, w = SolveCircularArc(arcs, []float64{1.5, 1, 1})
	if len(set) != 2 || w != 2 {
		t.Errorf("set=%v w=%v", set, w)
	}
}

func TestCircularArcWraparoundChain(t *testing.T) {
	// Three arcs around the circle where the first wraps across 0.
	arcs := []geom.Arc{
		geom.NewArc(0, 0.3),           // crosses θ₀
		geom.NewArc(0.55, 0.2),        // overlaps arc 0 (gap 0.55 < 0.5+... )
		geom.NewArc(math.Pi, 0.3),     // clear of both
		geom.NewArc(2*math.Pi-0.5, 1), // wide, crosses θ₀, overlaps 0
	}
	weights := []float64{1, 1, 1, 1}
	set, w := SolveCircularArc(arcs, weights)
	prob := problemFromArcs(arcs, weights)
	if !prob.IsIndependent(set) {
		t.Fatalf("dependent set %v", set)
	}
	res := BranchAndBound(prob, 0)
	if math.Abs(w-res.Weight) > 1e-9 {
		t.Fatalf("circular %v != exact %v", w, res.Weight)
	}
}

func TestCircularArcZeroWeightsIgnored(t *testing.T) {
	arcs := []geom.Arc{geom.NewArc(0, 0.2), geom.NewArc(2, 0.2)}
	set, w := SolveCircularArc(arcs, []float64{0, 0})
	if len(set) != 0 || w != 0 {
		t.Errorf("set=%v w=%v", set, w)
	}
}

func TestCircularArcLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SolveCircularArc([]geom.Arc{geom.NewArc(0, 1)}, []float64{1, 2})
}

// The polynomial solver must be fast where B&B is exponential: dense large
// instances solve in microseconds.
func TestCircularArcScales(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	arcs, weights := randomArcs(rng, 400)
	set, w := SolveCircularArc(arcs, weights)
	if w <= 0 || len(set) == 0 {
		t.Fatal("degenerate solution on large instance")
	}
	prob := problemFromArcs(arcs, weights)
	if !prob.IsIndependent(set) {
		t.Fatal("dependent set on large instance")
	}
	// Greedy must not beat the exact optimum.
	if g := prob.SetWeight(LocalSearch(prob, Greedy(prob))); g > w+1e-9 {
		t.Fatalf("greedy %v beat 'optimal' %v", g, w)
	}
}
