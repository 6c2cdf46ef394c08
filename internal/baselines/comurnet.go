package baselines

import (
	"math/rand"
	"sort"

	"after/internal/dataset"
	"after/internal/mwis"
	"after/internal/occlusion"
	"after/internal/sim"
)

// COMURNet is the stand-in for Chen et al. 2022 [37], the only prior method
// that considers view occlusion. The original is an actor-critic RL network
// that maximizes user preference under a *hard* no-occlusion constraint,
// solving each time step independently. This reproduction keeps exactly that
// behavioural contract (see DESIGN.md, substitutions): at every step it runs
// an exact branch-and-bound MWIS over the current occlusion graph with
// preference-only weights, so
//
//   - its rendered set is strictly mutually occlusion-free (0 % view
//     occlusion, the best possible, as in the paper's tables);
//   - it ignores hybrid participation — physical MR bodies can still block
//     its picks, costing utility;
//   - it ignores recommendation continuity — sets may flicker between
//     steps, destroying social presence;
//   - its per-step cost is orders of magnitude above the learned methods
//     (exact search instead of two GNN layers), reproducing the
//     impracticality the paper reports (~22 s/step on their hardware).
type COMURNet struct {
	// Beta is the β of the AFTER utility; preference weights use (1−β)·p.
	Beta float64
	// NodeBudget caps branch-and-bound nodes per step (0 = 200000). The
	// incumbent is always a valid independent set.
	NodeBudget int
	// K caps the recommendation size like the original's fixed action
	// budget (0 = DefaultRenderCount); the K heaviest members of the
	// independent set are kept.
	K int
	// PolicyNoise emulates the stochastic actor: per-step multiplicative
	// weight jitter (0 = 0.15). It is what makes consecutive solutions
	// flicker and destroys social presence, as the paper observes.
	PolicyNoise float64
	// LagSteps emulates the method's impracticality (Fig. 2b: "the
	// recommendation at t=0 is calculated after t=2"): the set applied at
	// step t was solved on the frame from t−LagSteps, and nothing is
	// rendered until the first solution arrives (0 = 3; negative disables
	// lag entirely, yielding the idealized infinitely-fast solver).
	LagSteps int
	// Seed drives the policy noise.
	Seed int64
}

// Name implements sim.Recommender.
func (COMURNet) Name() string { return "COMURNet" }

type comurSession struct {
	room    *dataset.Room
	target  int
	beta    float64
	budget  int
	k       int
	noise   float64
	lag     int
	pending [][]bool // solutions in flight; pending[0] becomes active next
	rng     *rand.Rand
}

// StartEpisode begins a per-step-independent constrained-search episode.
func (b COMURNet) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	beta := b.Beta
	if beta == 0 {
		beta = 0.5
	}
	budget := b.NodeBudget
	if budget <= 0 {
		budget = 200_000
	}
	noise := b.PolicyNoise
	if noise == 0 {
		noise = 0.15
	}
	lag := b.LagSteps
	if lag == 0 {
		lag = 3
	}
	if lag < 0 {
		lag = 0
	}
	return &comurSession{
		room:   room,
		target: target,
		beta:   beta,
		budget: budget,
		k:      clampK(b.K, room.N),
		noise:  noise,
		lag:    lag,
		rng:    rand.New(rand.NewSource(b.Seed ^ int64(target)*0x9e3779b9)),
	}
}

// Step solves the current frame and enqueues the result; what it *returns*
// is the solution that has finished computing by now — the one solved
// LagSteps frames ago. Before the first solution lands, nothing is rendered.
func (s *comurSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	s.pending = append(s.pending, s.solve(frame))
	if len(s.pending) <= s.lag {
		return make([]bool, s.room.N)
	}
	out := s.pending[0]
	s.pending = s.pending[1:]
	return out
}

func (s *comurSession) solve(frame *occlusion.StaticGraph) []bool {
	n := s.room.N
	weights := make([]float64, n)
	for w := 0; w < n; w++ {
		if w == s.target {
			continue
		}
		// Stochastic-policy jitter: the actor samples rather than argmaxes.
		jitter := 1 + s.noise*(2*s.rng.Float64()-1)
		weights[w] = (1 - s.beta) * s.room.Pref(s.target, w) * jitter
	}
	adj := frame.AdjacencyCSR()
	prob := mwis.NewProblem(weights, adj.RowPtr, adj.Col)
	res := mwis.BranchAndBound(prob, s.budget)
	// Keep the K heaviest members (the fixed action budget).
	sort.Slice(res.Set, func(a, b int) bool { return weights[res.Set[a]] > weights[res.Set[b]] })
	rendered := make([]bool, n)
	for i, w := range res.Set {
		if i >= s.k {
			break
		}
		if w != s.target {
			rendered[w] = true
		}
	}
	return rendered
}
