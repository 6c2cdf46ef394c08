package chaos

import (
	"strings"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/sim"
)

// nopRec is a batch-capable recommender whose steppers do nothing, so every
// observable effect of a wrapped step is the injected fault.
type nopRec struct{}

func (nopRec) Name() string                                            { return "nop" }
func (nopRec) StartEpisode(room *dataset.Room, target int) sim.Stepper { return nopStepper{} }
func (nopRec) StartBatch(room *dataset.Room) sim.BatchStepper          { return nopStepper{} }

type nopStepper struct{}

func (nopStepper) Step(t int, frame *occlusion.StaticGraph) []bool { return nil }
func (nopStepper) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	return nil
}

// TestWrapRecommenderFaultSequence pins the stall/panic decisions of a fixed
// seed, per target stream and for the batch stream, to a golden sequence
// recorded before the wrapper moved onto sim.WrapSteps: '.' clean, 's'
// stall, 'p' panic, 'B' stall then panic. A change here silently changes
// every chaos experiment's fault schedule.
func TestWrapRecommenderFaultSequence(t *testing.T) {
	stalled := false
	defer func(orig func(time.Duration)) { sleep = orig }(sleep)
	sleep = func(time.Duration) { stalled = true }

	rec := WrapRecommender(nopRec{}, Config{Seed: 42, PanicRate: 0.3, LatencyRate: 0.25})
	br, ok := rec.(sim.BatchRecommender)
	if !ok {
		t.Fatal("wrapping a BatchRecommender lost batch capability")
	}
	decide := func(step func()) byte {
		stalled = false
		panicked := true
		func() {
			defer func() { _ = recover() }()
			step()
			panicked = false
		}()
		switch {
		case stalled && panicked:
			return 'B'
		case stalled:
			return 's'
		case panicked:
			return 'p'
		}
		return '.'
	}
	room := &dataset.Room{N: 4}
	golden := map[int]string{
		0:  "..BsBpp......pp.",
		1:  "..ss..s..p.ppsss",
		3:  "p..spp...s...sp.",
		-1: "pBBsB.pBB.s.pp.s",
	}
	for _, target := range []int{0, 1, 3, -1} {
		var step func(i int)
		if target < 0 {
			bs := br.StartBatch(room)
			step = func(i int) { bs.StepTargets(i, []int{0}, nil) }
		} else {
			st := rec.StartEpisode(room, target)
			step = func(i int) { st.Step(i, nil) }
		}
		var got strings.Builder
		for i := 0; i < len(golden[target]); i++ {
			got.WriteByte(decide(func() { step(i) }))
		}
		if got.String() != golden[target] {
			t.Errorf("stream %d: decisions %q, golden %q", target, got.String(), golden[target])
		}
	}
}
