package core

import (
	"math"
	"testing"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/parallel"
)

// batchDogs builds one DOG per target so batched and sequential runs see the
// identical per-target frame streams.
func batchDogs(room *dataset.Room, targets []int) []*occlusion.DOG {
	dogs := make([]*occlusion.DOG, len(targets))
	for i, target := range targets {
		dogs[i] = occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
	}
	return dogs
}

// runSequential steps one autodiff reference stepper per target over its DOG
// and returns rendered sets plus final probability vectors.
func runSequential(m *POSHGNN, room *dataset.Room, targets []int, dogs []*occlusion.DOG) ([][][]bool, [][]float64) {
	steps := len(dogs[0].Frames)
	rendered := make([][][]bool, len(targets)) // [target][t]
	probs := make([][]float64, len(targets))
	for i, target := range targets {
		sess := startRef(m, room, target)
		rendered[i] = make([][]bool, steps)
		for t := 0; t < steps; t++ {
			rendered[i][t] = sess.Step(t, dogs[i].Frames[t])
		}
		probs[i] = sess.Probabilities()
	}
	return rendered, probs
}

// runBatched steps all targets through one BatchSession and returns the same
// shapes as runSequential.
func runBatched(m *POSHGNN, room *dataset.Room, targets []int, dogs []*occlusion.DOG, opt BatchOptions) ([][][]bool, [][]float64) {
	steps := len(dogs[0].Frames)
	bs := m.StartBatchSession(room, opt)
	rendered := make([][][]bool, len(targets))
	for i := range targets {
		rendered[i] = make([][]bool, steps)
	}
	frames := make([]*occlusion.StaticGraph, len(targets))
	for t := 0; t < steps; t++ {
		for i := range targets {
			frames[i] = dogs[i].Frames[t]
		}
		out := bs.StepTargets(t, targets, frames)
		for i := range targets {
			rendered[i][t] = out[i]
		}
	}
	probs := make([][]float64, len(targets))
	for i, target := range targets {
		probs[i] = bs.View(target).Probabilities()
	}
	return rendered, probs
}

func targetCounts(n int) [][]int {
	sets := [][]int{{0}, {0, n / 2}}
	if n >= 16 {
		t16 := make([]int, 16)
		for i := range t16 {
			t16[i] = i * n / 16
		}
		sets = append(sets, t16)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return append(sets, all)
}

// TestBatchStepMatchesSequential pins the float64 batched forward pass to
// the autodiff reference stepper bit-identically: rendered sets equal at
// every step and final probability vectors equal to the last bit, across
// rooms (including edgeless and clique scenes), model ablations, and batch
// widths 1 / 2 / 16 / N.
func TestBatchStepMatchesSequential(t *testing.T) {
	rooms := []*dataset.Room{testRoom(4), movingRoom(6, 3), movingRoom(5, 9), edgelessRoom(), cliqueRoom()}
	configs := []Config{
		{UseMIA: true, UseLWP: true, Seed: 1},
		{UseMIA: true, UseLWP: false, Seed: 2},
		{UseMIA: false, UseLWP: true, Seed: 3},
		{UseMIA: true, UseLWP: true, RawDecode: true, Seed: 4},
		{UseMIA: true, UseLWP: true, MaxRender: -1, Seed: 5},
	}
	for ri, room := range rooms {
		for ci, cfg := range configs {
			m := New(cfg)
			if ci == 0 {
				block := make([]bool, room.N)
				block[room.N-1] = true
				m.SetBlocklist(block)
			}
			for _, targets := range targetCounts(room.N) {
				dogs := batchDogs(room, targets)
				wantR, wantP := runSequential(m, room, targets, dogs)
				gotR, gotP := runBatched(m, room, targets, dogs, BatchOptions{})
				for i, target := range targets {
					for st := range wantR[i] {
						for w := range wantR[i][st] {
							if wantR[i][st][w] != gotR[i][st][w] {
								t.Fatalf("room %d cfg %d targets %v: target %d step %d user %d: sequential %v batched %v",
									ri, ci, targets, target, st, w, wantR[i][st][w], gotR[i][st][w])
							}
						}
					}
					for w := range wantP[i] {
						if wantP[i][w] != gotP[i][w] {
							t.Fatalf("room %d cfg %d: target %d prob[%d]: sequential %v batched %v (diff %g)",
								ri, ci, target, w, wantP[i][w], gotP[i][w], wantP[i][w]-gotP[i][w])
						}
					}
				}
			}
		}
	}
}

// TestBatchStepWorkerInvariant: the batched pass is bit-identical across
// worker-pool limits (the kernels split rows into disjoint contiguous
// blocks, so scheduling cannot reorder any accumulation).
func TestBatchStepWorkerInvariant(t *testing.T) {
	room := movingRoom(5, 17)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 6})
	targets := []int{0, 3, 7, 11, 14}
	dogs := batchDogs(room, targets)
	var r1, r8 [][][]bool
	var p1, p8 [][]float64
	parallel.WithLimit(1, func() { r1, p1 = runBatched(m, room, targets, dogs, BatchOptions{}) })
	parallel.WithLimit(8, func() { r8, p8 = runBatched(m, room, targets, dogs, BatchOptions{}) })
	for i := range targets {
		for st := range r1[i] {
			for w := range r1[i][st] {
				if r1[i][st][w] != r8[i][st][w] {
					t.Fatalf("workers=1 vs 8: target %d step %d user %d differ", targets[i], st, w)
				}
			}
		}
		for w := range p1[i] {
			if p1[i][w] != p8[i][w] {
				t.Fatalf("workers=1 vs 8: target %d prob[%d] %v vs %v", targets[i], w, p1[i][w], p8[i][w])
			}
		}
	}
}

// float32ProbTolerance is the documented accuracy contract of the fast
// path: per-user recommendation probabilities stay within 1e-3 of the
// float64 oracle (sigmoid outputs in [0,1]; five single-precision layers
// leave ~1e-5 typical error, so 1e-3 is a hard ceiling, not an estimate of
// the mean). README/EXPERIMENTS.md quote this bound.
const float32ProbTolerance = 1e-3

// TestBatchFloat32NearOracle: the float32 fast path tracks the float64
// oracle — the autodiff reference stepper — within float32ProbTolerance on
// every probability.
func TestBatchFloat32NearOracle(t *testing.T) {
	room := movingRoom(6, 21)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 7})
	targets := []int{0, 4, 8, 12}
	dogs := batchDogs(room, targets)
	_, p64 := runSequential(m, room, targets, dogs)
	_, p32 := runBatched(m, room, targets, dogs, BatchOptions{Float32: true})
	for i, target := range targets {
		for w := range p64[i] {
			if diff := math.Abs(p64[i][w] - p32[i][w]); diff > float32ProbTolerance {
				t.Fatalf("target %d prob[%d]: f64 %v vs f32 %v (diff %g > %g)",
					target, w, p64[i][w], p32[i][w], diff, float32ProbTolerance)
			}
		}
	}
}

// TestBatchMembershipChanges: targets may enter and leave the batch between
// steps; each target's state must evolve exactly as a reference stepper fed
// the same frame subsequence.
func TestBatchMembershipChanges(t *testing.T) {
	room := movingRoom(6, 33)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 8})
	dogA := occlusion.BuildDOG(2, room.Traj, room.AvatarRadius)
	dogB := occlusion.BuildDOG(9, room.Traj, room.AvatarRadius)

	bs := m.StartBatchSession(room, BatchOptions{})
	// A steps at t=0,1,2,3; B only at t=0 and t=2.
	got := map[int][][]bool{}
	push := (func(target int, out []bool) { got[target] = append(got[target], out) })
	out := bs.StepTargets(0, []int{2, 9}, []*occlusion.StaticGraph{dogA.Frames[0], dogB.Frames[0]})
	push(2, out[0])
	push(9, out[1])
	out = bs.StepTargets(1, []int{2}, []*occlusion.StaticGraph{dogA.Frames[1]})
	push(2, out[0])
	out = bs.StepTargets(2, []int{9, 2}, []*occlusion.StaticGraph{dogB.Frames[2], dogA.Frames[2]})
	push(9, out[0])
	push(2, out[1])
	out = bs.StepTargets(3, []int{2}, []*occlusion.StaticGraph{dogA.Frames[3]})
	push(2, out[0])

	seqA := startRef(m, room, 2)
	wantA := [][]bool{seqA.Step(0, dogA.Frames[0]), seqA.Step(1, dogA.Frames[1]),
		seqA.Step(2, dogA.Frames[2]), seqA.Step(3, dogA.Frames[3])}
	seqB := startRef(m, room, 9)
	wantB := [][]bool{seqB.Step(0, dogB.Frames[0]), seqB.Step(2, dogB.Frames[2])}

	for st := range wantA {
		for w := range wantA[st] {
			if wantA[st][w] != got[2][st][w] {
				t.Fatalf("target 2 step %d user %d: solo %v batch %v", st, w, wantA[st][w], got[2][st][w])
			}
		}
	}
	for st := range wantB {
		for w := range wantB[st] {
			if wantB[st][w] != got[9][st][w] {
				t.Fatalf("target 9 step %d user %d: solo %v batch %v", st, w, wantB[st][w], got[9][st][w])
			}
		}
	}
}

// TestWidthOneViewMatchesReference: StartEpisode's Session is a width-1
// view of a fresh BatchSession and steps bit-identically to the autodiff
// reference, probabilities included; a View shares its target's state with
// StepTargets calls on the same session.
func TestWidthOneViewMatchesReference(t *testing.T) {
	room := movingRoom(6, 27)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 10})
	dog := occlusion.BuildDOG(1, room.Traj, room.AvatarRadius)
	ref := startRef(m, room, 1)
	sess := m.StartEpisode(room, 1)
	if sess.Probabilities() != nil {
		t.Fatal("probabilities before the first step")
	}
	bs := m.StartBatchSession(room, BatchOptions{})
	view := bs.View(1)
	for st, frame := range dog.Frames {
		want := ref.Step(st, frame)
		got := sess.Step(st, frame)
		// Alternate the shared-state session between the view and a direct
		// one-column StepTargets call.
		var shared []bool
		if st%2 == 0 {
			shared = view.Step(st, frame)
		} else {
			shared = bs.StepTargets(st, []int{1}, []*occlusion.StaticGraph{frame})[0]
		}
		for w := range want {
			if want[w] != got[w] || want[w] != shared[w] {
				t.Fatalf("step %d user %d: reference %v, StartEpisode %v, shared view %v", st, w, want[w], got[w], shared[w])
			}
		}
		wantP, gotP, viewP := ref.Probabilities(), sess.Probabilities(), view.Probabilities()
		for w := range wantP {
			if wantP[w] != gotP[w] || wantP[w] != viewP[w] {
				t.Fatalf("step %d prob[%d]: reference %v, StartEpisode %v, shared view %v", st, w, wantP[w], gotP[w], viewP[w])
			}
		}
	}
}

// TestBatchStepAllocs: the fused pass must stay off the allocator. Pooled
// scratch and closure-free kernel dispatch leave 2·K + 1 allocations for K
// targets: each target's decode heap and rendered set, and the result
// slice.
func TestBatchStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so the count holds only without it")
	}
	room := movingRoom(4, 41)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 11})
	targets := []int{0, 3, 6, 9, 12}
	dogs := batchDogs(room, targets)
	bs := m.StartBatchSession(room, BatchOptions{})
	frames := make([]*occlusion.StaticGraph, len(targets))
	for i := range targets {
		frames[i] = dogs[i].Frames[0]
	}
	// Warm-up: populates per-target state and workspace pools.
	for st := 0; st < 3; st++ {
		for i := range targets {
			frames[i] = dogs[i].Frames[st]
		}
		bs.StepTargets(st, targets, frames)
	}
	allocs := testing.AllocsPerRun(20, func() {
		bs.StepTargets(3, targets, frames)
	})
	budget := float64(2*len(targets) + 1)
	if allocs > budget {
		t.Fatalf("batched step allocates %.0f/step for %d targets, budget %.0f", allocs, len(targets), budget)
	}
}
