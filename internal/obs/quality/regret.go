package quality

import (
	"after/internal/dataset"
	"after/internal/mwis"
	"after/internal/occlusion"
)

// stepOracleValue computes the per-step MWIS oracle for one frame: the
// maximum achievable step utility given the previous step's actual
// visibility. Vertex w's weight is its realized-contribution potential
// (1-β)p(v,w) + β·s(v,w)·1[visible at t-1], zeroed by the physical mask
// (users overlapped by a co-located MR body can never be seen clearly, per
// Sec. III-A), and edges are the frame's occlusion edges: the overlaps of
// its view arcs, a circular-arc graph, so mwis.SolveCircularArc finds the
// exact optimum at every room size. Rendering exactly the optimal set
// achieves the returned value, and any rendered set's realized utility is
// at most it — Theorem 1's reduction, run in reverse as a quality yardstick.
func stepOracleValue(room *dataset.Room, frame *occlusion.StaticGraph, prevVisible []bool, beta float64) float64 {
	target := frame.Target
	mask := frame.PhysicalMask(room.Interfaces)
	weights := make([]float64, frame.N)
	for w := range weights {
		if w == target || mask[w] == 0 {
			continue
		}
		weights[w] = (1 - beta) * room.Pref(target, w)
		if prevVisible[w] {
			weights[w] += beta * room.Social(target, w)
		}
	}
	_, val := mwis.SolveCircularArc(frame.Arcs, weights)
	return val
}

// regretSeries walks a rendering trace once more, replaying the actual
// visibility chain, and returns the per-step regret against the oracle:
// regret[t] = oracle[t] − actual[t], clamped at zero (the oracle is the
// optimum, so only float rounding can push a step below it).
// actual[t] is the step's realized utility (Attribution.Steps[t].Total).
func regretSeries(room *dataset.Room, dog *occlusion.DOG, rendered [][]bool,
	actual []float64, beta float64) (regret, oracle []float64) {
	steps := len(dog.Frames)
	regret = make([]float64, steps)
	oracle = make([]float64, steps)
	prevVisible := make([]bool, room.N)
	curVisible := make([]bool, room.N)
	present := make([]bool, room.N)
	for t, frame := range dog.Frames {
		oracle[t] = stepOracleValue(room, frame, prevVisible, beta)
		regret[t] = max(oracle[t]-actual[t], 0)
		visible := frame.VisibleSetInto(curVisible, present, rendered[t], room.Interfaces)
		prevVisible, curVisible = visible, prevVisible
	}
	return regret, oracle
}
