package resilience_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/resilience"
	"after/internal/sim"
)

// flakyBatchRec is a batch-capable fixedRec: its fused passes panic on the
// pass numbers in panicOn (counted from 1 across sessions), and the
// per-target stepper of badTarget always panics.
type flakyBatchRec struct {
	fixedRec
	badTarget int
	panicOn   map[int]bool
	widths    *[]int // width of every fused pass attempted
}

func (r flakyBatchRec) Name() string { return "Flaky" }

func (r flakyBatchRec) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	if target == r.badTarget {
		return &faultyTestStepper{inner: &fixedStepper{n: room.N, target: target, k: r.k}, before: func(int) { panic("solo") }}
	}
	return r.fixedRec.StartEpisode(room, target)
}

func (r flakyBatchRec) StartBatch(room *dataset.Room) sim.BatchStepper {
	return flakyBatch{r: r, n: room.N}
}

type flakyBatch struct {
	r flakyBatchRec
	n int
}

func (b flakyBatch) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	*b.r.widths = append(*b.r.widths, len(targets))
	if b.r.panicOn[len(*b.r.widths)] {
		panic("fused")
	}
	out := make([][]bool, len(targets))
	for i, target := range targets {
		out[i] = (&fixedStepper{n: b.n, target: target, k: b.r.k}).Step(t, frames[i])
	}
	return out
}

// stepRoom steps targets through r at frame t and prints every target's
// result, then how many members the fused pass returned in time.
func stepRoom(r *resilience.Room, room *dataset.Room, t int, targets []int) string {
	results := make([]resilience.Result, len(targets))
	fused := r.Step(t, targets, room.Traj.Pos[t], make([]time.Duration, len(targets)), 0, nil, func(i int, res resilience.Result) {
		results[i] = res
	})
	var s string
	for i, res := range results {
		s += fmt.Sprintf("%d:%s fresh=%v fused=%v len=%d; ", targets[i], res.ServedBy, res.Fresh, res.Fused, len(res.Rendered))
	}
	return s + fmt.Sprintf("pass=%d", fused)
}

// TestRoomDemotedTargetStepsSolo: when a fused pass panics, its members step
// through their own guards; a member whose guard demotes there keeps
// stepping solo on its fallback, while the others return to the fused pass.
func TestRoomDemotedTargetStepsSolo(t *testing.T) {
	room := buildRoom(6, 3)
	var widths []int
	rec := flakyBatchRec{fixedRec: fixedRec{k: 2}, badTarget: 0, panicOn: map[int]bool{1: true}, widths: &widths}
	r := resilience.NewRoom(rec, room, resilience.Config{MaxRetries: 1, Fallbacks: []sim.Recommender{fixedRec{k: 2}}})
	targets := []int{0, 1, 2}

	got := stepRoom(r, room, 0, targets)
	want := "0:Fixed fresh=true fused=false len=6; 1:Flaky fresh=true fused=false len=6; 2:Flaky fresh=true fused=false len=6; pass=0"
	if got != want {
		t.Fatalf("panicked pass:\n got  %s\n want %s", got, want)
	}
	got = stepRoom(r, room, 1, targets)
	want = "0:Fixed fresh=true fused=false len=6; 1:Flaky fresh=true fused=true len=6; 2:Flaky fresh=true fused=true len=6; pass=2"
	if got != want {
		t.Fatalf("after demotion:\n got  %s\n want %s", got, want)
	}
	if fmt.Sprint(widths) != "[3 2]" {
		t.Fatalf("fused pass widths %v, want [3 2]: the demoted target must leave the pass", widths)
	}
	if r.Sessions() != 3 {
		t.Fatalf("sessions %d, want 3", r.Sessions())
	}

	// A primary that cannot batch never fuses.
	solo := resilience.NewRoom(fixedRec{k: 2}, room, resilience.Config{})
	got = stepRoom(solo, room, 0, targets[1:])
	if want := "1:Fixed fresh=true fused=false len=6; 2:Fixed fresh=true fused=false len=6; pass=0"; got != want {
		t.Fatalf("per-target primary:\n got  %s\n want %s", got, want)
	}
}

// gatedRec is fixedRec whose target gated waits, from frame 1 on, until
// release closes or a second passes; late records the timeouts.
type gatedRec struct {
	fixedRec
	gated   int
	release chan struct{}
	late    *atomic.Int32
}

func (r gatedRec) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	inner := &fixedStepper{n: room.N, target: target, k: r.k}
	if target != r.gated {
		return inner
	}
	return &faultyTestStepper{inner: inner, before: func(call int) {
		if call < 2 {
			return
		}
		select {
		case <-r.release:
		case <-time.After(time.Second):
			r.late.Add(1)
		}
	}}
}

// TestRoomAnswersEachTargetWhenReady: Step reports each target as soon as
// its own set is ready, so a slow solo step holds back neither the fused
// pass's members nor another solo target. The gated step only returns
// promptly once every other target has been reported.
func TestRoomAnswersEachTargetWhenReady(t *testing.T) {
	room := buildRoom(6, 3)
	targets := []int{0, 1, 2}
	step := func(r *resilience.Room, g gatedRec) {
		var reported atomic.Int32
		r.Step(1, targets, room.Traj.Pos[1], make([]time.Duration, len(targets)), 0, nil, func(i int, res resilience.Result) {
			if targets[i] != g.gated && reported.Add(1) == int32(len(targets)-1) {
				close(g.release)
			}
		})
	}

	// Mixed batch: target 0 demoted onto a gated fallback during a panicked
	// pass, targets 1 and 2 fused.
	var widths []int
	mixed := gatedRec{fixedRec: fixedRec{k: 2}, gated: 0, release: make(chan struct{}), late: new(atomic.Int32)}
	rec := flakyBatchRec{fixedRec: fixedRec{k: 2}, badTarget: 0, panicOn: map[int]bool{1: true}, widths: &widths}
	r := resilience.NewRoom(rec, room, resilience.Config{MaxRetries: 1, Fallbacks: []sim.Recommender{mixed}})
	stepRoom(r, room, 0, targets)
	step(r, mixed)
	if fmt.Sprint(widths) != "[3 2]" {
		t.Fatalf("fused pass widths %v, want [3 2]", widths)
	}

	// Solo path: a primary that cannot batch, stepped by two workers.
	solo := gatedRec{fixedRec: fixedRec{k: 2}, gated: 1, release: make(chan struct{}), late: mixed.late}
	r = resilience.NewRoom(solo, room, resilience.Config{})
	stepRoom(r, room, 0, targets)
	parallel.WithLimit(2, func() { step(r, solo) })

	if n := mixed.late.Load(); n != 0 {
		t.Fatalf("%d gated steps waited out their timeout: a target was reported only after the slow one", n)
	}
}
