package mwis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/occlusion"
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

// edgeCaseArcs draws n arcs and weights that reach the solver's edge cases:
// full arcs, arcs that start exactly where another ends (or end where it
// starts), arcs that straddle or touch the 0/2π seam, co-located duplicates
// and near-duplicates shifted by less than a nanoradian, and weights with
// zeros, negatives and exact ties.
func edgeCaseArcs(rng *rand.Rand, n int) ([]geom.Arc, []float64) {
	arcs := make([]geom.Arc, n)
	weights := make([]float64, n)
	for i := range arcs {
		h := 0.02 + rng.Float64()*0.6
		if rng.Intn(8) == 0 {
			h = rng.Float64() * math.Pi
		}
		switch k := rng.Intn(10); {
		case k == 0:
			arcs[i] = geom.Arc{Center: rng.Float64() * 2 * math.Pi, HalfWidth: math.Pi}
		case k == 1 && i > 0:
			a := arcs[rng.Intn(i)]
			arcs[i] = geom.NewArc(a.Center+a.HalfWidth+h, h)
		case k == 2 && i > 0:
			a := arcs[rng.Intn(i)]
			arcs[i] = geom.NewArc(a.Center-a.HalfWidth-h, h)
		case k == 3 && i > 0:
			arcs[i] = arcs[rng.Intn(i)]
		case k == 4:
			arcs[i] = geom.NewArc((2*rng.Float64()-1)*h, h)
		case k == 5:
			arcs[i] = geom.NewArc(float64(1-2*rng.Intn(2))*h, h)
		case k == 6 && i > 0:
			a := arcs[rng.Intn(i)]
			arcs[i] = geom.NewArc(a.Center+(2*rng.Float64()-1)*1e-9, a.HalfWidth)
		default:
			arcs[i] = geom.NewArc(rng.Float64()*2*math.Pi, h)
		}
		switch k := rng.Intn(8); {
		case k == 0:
			weights[i] = 0
		case k == 1:
			weights[i] = -rng.Float64()
		case k == 2:
			weights[i] = float64(1 + rng.Intn(3))
		case k == 3 && i > 0:
			weights[i] = weights[rng.Intn(i)]
		default:
			weights[i] = rng.Float64()
		}
	}
	return arcs, weights
}

// checkAgainstBranchAndBound requires SolveCircularArc's set to be
// independent in prob, to weigh what it reports, and to weigh what
// branch and bound proves optimal.
func checkAgainstBranchAndBound(t *testing.T, name string, prob *Problem, arcs []geom.Arc, weights []float64) {
	t.Helper()
	set, w := SolveCircularArc(arcs, weights)
	if !prob.IsIndependent(set) {
		t.Fatalf("%s: set %v not independent", name, set)
	}
	if got := prob.SetWeight(set); math.Abs(got-w) > 1e-9 {
		t.Fatalf("%s: reported weight %v != set weight %v", name, w, got)
	}
	res := BranchAndBound(prob, 0)
	if !res.Optimal {
		t.Fatalf("%s: B&B did not finish", name)
	}
	if math.Abs(w-res.Weight) > 1e-9 {
		t.Fatalf("%s: circular %v != B&B %v", name, w, res.Weight)
	}
}

// TestCircularArcMatchesBranchAndBound holds the polynomial solver to the
// exact B&B: on 10,000 seeded instances of 1 to 24 edge-case arcs, and on
// every frame of three 24-user Timik rooms, all targets and all steps,
// where independence is checked in the frame's own CSR.
func TestCircularArcMatchesBranchAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10_000; trial++ {
		arcs, weights := edgeCaseArcs(rng, 1+rng.Intn(24))
		checkAgainstBranchAndBound(t, fmt.Sprintf("trial %d", trial),
			problemFromArcs(arcs, weights), arcs, weights)
	}
	for _, seed := range []int64{901, 921, 941} {
		room, err := dataset.Generate(dataset.Config{Kind: dataset.Timik, RoomUsers: 24, T: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, room.N)
		for target := 0; target < room.N; target++ {
			for step, pos := range room.Traj.Pos {
				frame := occlusion.BuildStatic(target, pos, room.AvatarRadius)
				mask := frame.PhysicalMask(room.Interfaces)
				for w := range weights {
					weights[w] = mask[w] * 0.5 * room.Pref(target, w)
					if rng.Intn(3) == 0 {
						weights[w] += mask[w] * 0.5 * room.Social(target, w)
					}
				}
				adj := frame.AdjacencyCSR()
				checkAgainstBranchAndBound(t, fmt.Sprintf("seed %d target %d step %d", seed, target, step),
					NewProblem(weights, adj.RowPtr, adj.Col), frame.Arcs, weights)
			}
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
