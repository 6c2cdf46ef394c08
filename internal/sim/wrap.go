package sim

import (
	"after/internal/dataset"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
)

// WrapSteps returns rec with a hook run before every step its steppers take.
// start is called once per stepper — with the target for a per-target
// episode, with -1 for a fused batch session — and returns the hook that
// stepper runs ahead of each Step or StepTargets call. The hook may sleep or
// panic; the wrapped step then behaves as if the inner stepper had.
//
// The wrapper keeps rec's name, stays a BatchRecommender when rec is one
// (one hook call per fused pass, however wide), and forwards TraceCarrier
// and prof.Carrier to the inner stepper, so wrapping can neither silently
// disable the fused path nor break span or profile propagation.
func WrapSteps(rec Recommender, start func(target int) func()) Recommender {
	w := hookedRec{Recommender: rec, start: start}
	if br, ok := rec.(BatchRecommender); ok {
		return hookedBatchRec{hookedRec: w, batch: br}
	}
	return w
}

type hookedRec struct {
	Recommender
	start func(target int) func()
}

// StartEpisode implements Recommender.
func (r hookedRec) StartEpisode(room *dataset.Room, target int) Stepper {
	inner := r.Recommender.StartEpisode(room, target)
	return &hookedStepper{carrier: carrier{inner}, inner: inner, before: r.start(target)}
}

type hookedBatchRec struct {
	hookedRec
	batch BatchRecommender
}

// StartBatch implements BatchRecommender.
func (r hookedBatchRec) StartBatch(room *dataset.Room) BatchStepper {
	inner := r.batch.StartBatch(room)
	return &hookedBatch{carrier: carrier{inner}, inner: inner, before: r.start(-1)}
}

type hookedStepper struct {
	carrier
	inner  Stepper
	before func()
}

// Step implements Stepper.
func (s *hookedStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	s.before()
	return s.inner.Step(t, frame)
}

type hookedBatch struct {
	carrier
	inner  BatchStepper
	before func()
}

// StepTargets implements BatchStepper.
func (s *hookedBatch) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	s.before()
	return s.inner.StepTargets(t, targets, frames)
}

// carrier forwards the optional trace and profiling capabilities to a
// wrapped stepper; each is a no-op when the stepper lacks it.
type carrier struct{ stepper any }

// SetTraceParent implements TraceCarrier.
func (c carrier) SetTraceParent(parent obs.SpanID) {
	if tc, ok := c.stepper.(TraceCarrier); ok {
		tc.SetTraceParent(parent)
	}
}

// SetProfLabels implements prof.Carrier.
func (c carrier) SetProfLabels(l *prof.Labels) {
	if pc, ok := c.stepper.(prof.Carrier); ok {
		pc.SetProfLabels(l)
	}
}
