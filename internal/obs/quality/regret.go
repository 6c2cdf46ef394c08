package quality

import (
	"after/internal/dataset"
	"after/internal/mwis"
	"after/internal/occlusion"
)

// OracleKind says how a step's oracle value was obtained.
type OracleKind uint8

const (
	// OracleNone marks steps the oracle skipped (room above HeuristicMaxN).
	OracleNone OracleKind = iota
	// OracleExact is the branch-and-bound MWIS optimum — a true upper bound
	// on any recommender's step utility, so exact regret is non-negative.
	OracleExact
	// OracleHeuristic is greedy + local search — a strong feasible solution
	// but a *lower* bound on the optimum, so heuristic "regret" is a
	// conservative estimate (clamped at zero) rather than a bound.
	OracleHeuristic
)

// String implements fmt.Stringer.
func (k OracleKind) String() string {
	switch k {
	case OracleExact:
		return "exact"
	case OracleHeuristic:
		return "heuristic"
	default:
		return "none"
	}
}

// stepOracleValue computes the per-step MWIS oracle for one frame: the
// maximum achievable step utility given the previous step's actual
// visibility. Vertex w's weight is its realized-contribution potential
// (1-β)p(v,w) + β·s(v,w)·1[visible at t-1], zeroed by the physical mask
// (users overlapped by a co-located MR body can never be seen clearly, per
// Sec. III-A), and edges are the frame's occlusion edges. Rendering exactly
// the returned independent set achieves the returned value, and any rendered
// set's realized utility is at most the exact optimum — Theorem 1's
// reduction, run in reverse as a quality yardstick.
func stepOracleValue(room *dataset.Room, frame *occlusion.StaticGraph,
	prevVisible []bool, beta float64, cfg Config) (float64, OracleKind) {
	n := frame.N
	if n > cfg.HeuristicMaxN {
		return 0, OracleNone
	}
	target := frame.Target
	mask := frame.PhysicalMask(room.Interfaces)
	weights := make([]float64, n)
	positive := false
	for w := 0; w < n; w++ {
		if w == target || mask[w] == 0 {
			continue
		}
		wt := (1 - beta) * room.Pref(target, w)
		if prevVisible != nil && prevVisible[w] {
			wt += beta * room.Social(target, w)
		}
		if wt > 0 {
			weights[w] = wt
			positive = true
		}
	}
	if !positive {
		return 0, OracleExact // nothing has value; the optimum is trivially 0
	}
	adj := frame.AdjacencyCSR()
	p := mwis.NewProblem(weights, adj.RowPtr, adj.Col)
	if n <= cfg.ExactOracleMaxN {
		res := mwis.BranchAndBound(p, cfg.OracleNodeBudget)
		if res.Optimal {
			return res.Weight, OracleExact
		}
		// Budget exhausted: the incumbent is feasible but not proven
		// optimal, so it downgrades to a heuristic reference.
		return res.Weight, OracleHeuristic
	}
	set := mwis.LocalSearch(p, mwis.Greedy(p))
	return p.SetWeight(set), OracleHeuristic
}

// regretSeries walks a rendering trace once more, replaying the actual
// visibility chain, and returns the per-step regret against the oracle:
// regret[t] = oracle[t] − actual[t], clamped at zero (exact-oracle steps can
// only go negative by float dust; heuristic steps legitimately can, and a
// heuristic "negative regret" just means the recommender beat greedy).
// actual[t] is the step's realized utility (Attribution.Steps[t].Total).
// kinds[t] records which oracle produced each bound.
func regretSeries(room *dataset.Room, dog *occlusion.DOG, rendered [][]bool,
	actual []float64, beta float64, cfg Config) (regret, oracle []float64, kinds []OracleKind) {
	steps := len(dog.Frames)
	regret = make([]float64, steps)
	oracle = make([]float64, steps)
	kinds = make([]OracleKind, steps)
	prevVisible := make([]bool, room.N)
	curVisible := make([]bool, room.N)
	present := make([]bool, room.N)
	for t, frame := range dog.Frames {
		val, kind := stepOracleValue(room, frame, prevVisible, beta, cfg)
		kinds[t] = kind
		if kind != OracleNone {
			oracle[t] = val
			r := val - actual[t]
			if r < 0 {
				r = 0
			}
			regret[t] = r
		}
		visible := frame.VisibleSetInto(curVisible, present, rendered[t], room.Interfaces)
		prevVisible, curVisible = visible, prevVisible
	}
	return regret, oracle, kinds
}
