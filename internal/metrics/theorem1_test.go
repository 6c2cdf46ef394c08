package metrics

import (
	"math"
	"math/rand"
	"testing"

	"after/internal/crowd"
	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/mwis"
	"after/internal/occlusion"
	"after/internal/socialgraph"
)

// TestTheorem1Equivalence checks the reduction behind the paper's hardness
// proof on random scenes: with T=0 and β=0 (so only 1[v⇒w]·p(v,w) counts),
// the best achievable step utility over ALL 2^(N-1) rendering subsets must
// equal the maximum-weight independent set of the static occlusion graph
// with weights p(v,·). This ties the implemented visibility semantics to
// Theorem 1 exactly.
func TestTheorem1Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6) // brute force over ≤ 2^9 subsets
		positions := make([]geom.Vec2, n)
		for i := range positions {
			positions[i] = geom.Vec2{X: rng.Float64() * 6, Z: rng.Float64() * 6}
		}
		pvec := make([]float64, n*n)
		for w := 1; w < n; w++ {
			pvec[0*n+w] = rng.Float64()
		}
		room := &dataset.Room{
			Name:         "theorem1",
			N:            n,
			Graph:        socialgraph.New(n),
			Interfaces:   make([]occlusion.Interface, n), // all VR
			Traj:         &crowd.Trajectories{Pos: [][]geom.Vec2{positions}},
			P:            pvec,
			S:            make([]float64, n*n),
			AvatarRadius: occlusion.DefaultAvatarRadius,
		}
		frame := occlusion.BuildStatic(0, positions, room.AvatarRadius)

		// Brute force over all rendering subsets of users 1..n-1.
		best := 0.0
		for mask := 0; mask < 1<<(n-1); mask++ {
			rendered := make([]bool, n)
			for i := 1; i < n; i++ {
				if mask&(1<<(i-1)) != 0 {
					rendered[i] = true
				}
			}
			u, _ := StepUtility(room, frame, rendered, nil, 0)
			if u > best {
				best = u
			}
		}

		// MWIS on the occlusion graph with weights p(0,·).
		weights := make([]float64, n)
		for w := 1; w < n; w++ {
			weights[w] = room.Pref(0, w)
		}
		adj := frame.AdjacencyCSR()
		prob := mwis.NewProblem(weights, adj.RowPtr, adj.Col)
		res := mwis.BranchAndBound(prob, 0)
		if !res.Optimal {
			t.Fatal("MWIS not solved to optimality on tiny instance")
		}
		if math.Abs(best-res.Weight) > 1e-9 {
			t.Fatalf("trial %d: brute-force best %v != MWIS %v (Theorem 1 violated)",
				trial, best, res.Weight)
		}
	}
}

// TestPhysicalBlockingCostsUtilityNotOcclusionRate pins the table semantics
// for hard-constraint methods: a mutually occlusion-free rendered set keeps
// a 0% view-occlusion rate even when a co-located MR body blocks one of its
// members — the blocked member just earns nothing.
func TestPhysicalBlockingCostsUtilityNotOcclusionRate(t *testing.T) {
	// Target 0 (MR) at origin; MR body at (1,0); rendered VR user at (2,0)
	// behind the body; rendered VR user at (0,2) in the clear.
	positions := []geom.Vec2{{X: 0, Z: 0}, {X: 1, Z: 0}, {X: 2, Z: 0}, {X: 0, Z: 2}}
	n := 4
	pvec := make([]float64, n*n)
	pvec[0*n+2] = 0.9
	pvec[0*n+3] = 0.4
	pos := [][]geom.Vec2{positions, positions}
	room := &dataset.Room{
		Name:         "physical",
		N:            n,
		Graph:        socialgraph.New(n),
		Interfaces:   []occlusion.Interface{occlusion.MR, occlusion.MR, occlusion.VR, occlusion.VR},
		Traj:         &crowd.Trajectories{Pos: pos},
		P:            pvec,
		S:            make([]float64, n*n),
		AvatarRadius: occlusion.DefaultAvatarRadius,
	}
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rendered := [][]bool{{false, false, true, true}, {false, false, true, true}}
	res, err := Score(room, dog, rendered, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OcclusionRate != 0 {
		t.Errorf("mutually clear rendered set reported occlusion %v", res.OcclusionRate)
	}
	// Only the clear user (p=0.4) scores; the physically blocked 0.9 user
	// earns nothing across both frames.
	if math.Abs(res.Preference-0.8) > 1e-12 {
		t.Errorf("Preference = %v, want 0.8", res.Preference)
	}
}
