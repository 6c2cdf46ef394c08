package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/obs/prof"
	"after/internal/obs/prof/proftest"
	"after/internal/occlusion"
	"after/internal/parallel"
)

// TestBatchProfLabelPropagation pins the continuous-profiling attribution
// contract on the serving-path kernel: while a fused 16-target batch steps,
// the goroutines running core/tensor code must carry the session's room
// label and a known phase label — at one worker (everything on the calling
// goroutine) and at eight (tensor kernels fanning out over the pool, where
// labels must survive via goroutine inheritance). A sampler goroutine reads
// the labels from goroutine profiles taken while the batch steps.
func TestBatchProfLabelPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("goroutine sampling skipped in -short")
	}
	room, err := dataset.Generate(dataset.Config{
		Kind: dataset.Hubs, PlatformUsers: 200, RoomUsers: 20, T: 24, Seed: 424,
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, 16)
	dogs := make([]*occlusion.DOG, 16)
	for i := range targets {
		targets[i] = i
		dogs[i] = occlusion.BuildDOG(i, room.Traj, room.AvatarRadius)
	}
	steps := len(dogs[0].Frames)
	m := New(Config{UseMIA: true, UseLWP: true})

	prev := prof.SetEnabled(true)
	defer func() {
		prof.Clear()
		prof.SetEnabled(prev)
	}()

	knownPhases := map[string]bool{
		"batch": true, "mia": true, "pdr": true, "lwp": true, "decode": true, "spmm": true,
	}
	// inForward reports whether a stack is running the batched forward: a
	// core or tensor frame other than this file's test functions. The
	// sampler and the test goroutine between steps are not.
	inForward := func(stack string) bool {
		for _, fn := range strings.Split(stack, "\n") {
			if (strings.Contains(fn, "internal/core.") || strings.Contains(fn, "internal/tensor.")) &&
				!strings.Contains(fn, "internal/core.Test") {
				return true
			}
		}
		return false
	}
	for _, workers := range []int{1, 8} {
		parallel.WithLimit(workers, func() {
			bs := m.StartBatchSession(room, BatchOptions{})
			bs.SetProfLabels(prof.NewLabels("room7", "POSHGNN"))
			frames := make([]*occlusion.StaticGraph, len(targets))

			stop := make(chan struct{})
			type tally struct {
				core, labeled int
				err           error
			}
			sampled := make(chan tally, 1)
			go func() {
				var n tally
				for {
					select {
					case <-stop:
						sampled <- n
						return
					default:
					}
					gs, err := proftest.Goroutines()
					if err != nil {
						n.err = err
						continue
					}
					for _, g := range gs {
						if !inForward(g.Stack) {
							continue
						}
						n.core += g.Count
						phase := g.Labels["phase"]
						if g.Labels["room"] == "room7" && g.Labels["rec"] == "POSHGNN" && knownPhases[phase] {
							n.labeled += g.Count
						} else if phase != "" && !knownPhases[phase] {
							n.err = fmt.Errorf("unknown phase label %q", phase)
						}
					}
					time.Sleep(time.Millisecond)
				}
			}()
			deadline := time.Now().Add(500 * time.Millisecond)
			for rep := 0; time.Now().Before(deadline); rep++ {
				for st := 0; st < steps; st++ {
					for i := range targets {
						frames[i] = dogs[i].Frames[st]
					}
					bs.StepTargets(rep*steps+st, targets, frames)
				}
			}
			close(stop)
			n := <-sampled
			if n.err != nil {
				t.Fatalf("workers=%d: %v", workers, n.err)
			}
			if n.core == 0 {
				t.Skipf("workers=%d: no goroutine sampled in the forward (starved runner)", workers)
			}
			frac := float64(n.labeled) / float64(n.core)
			t.Logf("workers=%d: %.1f%% of sampled core goroutines labeled (%d of %d)",
				workers, 100*frac, n.labeled, n.core)
			if frac < 0.9 {
				t.Errorf("workers=%d: only %.1f%% of sampled core-path goroutines carry room/phase labels, want >= 90%%",
					workers, 100*frac)
			}
		})
	}
}

// TestBatchProfLabelsRestoreAmbient checks StepTargets leaves the caller on
// its ambient (PhaseNone) labels rather than a stale phase — the serving
// batcher relies on this after every processBatch.
func TestBatchProfLabelsRestoreAmbient(t *testing.T) {
	prev := prof.SetEnabled(true)
	defer func() {
		prof.Clear()
		prof.SetEnabled(prev)
	}()
	room := testRoom(3)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	m := New(Config{UseMIA: true, UseLWP: true})
	bs := m.StartBatchSession(room, BatchOptions{})
	bs.SetProfLabels(prof.NewLabels("roomZ", "POSHGNN"))
	bs.StepTargets(0, []int{0}, []*occlusion.StaticGraph{dog.Frames[0]})

	// A goroutine profile reports the current labels without burning CPU.
	gs, err := proftest.Goroutines()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if !strings.Contains(g.Stack, "TestBatchProfLabelsRestoreAmbient") {
			continue
		}
		if got := g.Labels["phase"]; got != "" {
			t.Errorf("caller goroutine still labeled phase=%q after StepTargets", got)
		}
		if got := g.Labels["room"]; got != "roomZ" {
			t.Errorf("caller goroutine lost ambient room label, got %q", got)
		}
		return
	}
	t.Skip("test goroutine not found in goroutine profile")
}
