package core

import (
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
	prevR     *tensor.Tensor
	prevH     *tensor.Tensor
}

func startRef(m *POSHGNN, room *dataset.Room, target int) *refSession {
	return &refSession{m: m, room: room, target: target}
}

// Step advances the reference by one frame and returns the rendered set.
func (s *refSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := s.m.forward(s.room, frame, s.prevFrame, s.prevR, s.prevH)
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
