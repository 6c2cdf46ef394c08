package sim_test

// The parallel evaluation harness promises bit-identical results to a
// sequential run: every (recommender, target) episode derives its randomness
// from (base seed, target) alone and writes into its own result slot, so
// scheduling cannot leak into the numbers. This test is the enforcement of
// that contract across every built-in recommender family — utilities,
// occlusion rates, and the raw rendering traces must match exactly between a
// single-worker and a many-worker run. StepTime is excluded: it measures
// wall-clock and legitimately differs between runs. POSHGNN runs both
// through sim.Func, which erases batching, and as the batch-capable
// exp.POSHGNNRec, whose targets Evaluate splits into one fused block per
// worker.

import (
	"testing"

	"after/internal/baselines"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/exp"
	"after/internal/metrics"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/sim"
)

func determinismRoom(t testing.TB) *dataset.Room {
	t.Helper()
	r, err := dataset.Generate(dataset.Config{
		Kind: dataset.SMM, PlatformUsers: 300, RoomUsers: 30, T: 12, Seed: 424,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func determinismRecs() []sim.Recommender {
	// Untrained, every probability sits below the default 0.5 threshold and
	// POSHGNN renders no one; at 1e-3 its decode order picks 7–10 users.
	posh := core.New(core.Config{UseMIA: true, UseLWP: true, Seed: 3, Threshold: 1e-3})
	return []sim.Recommender{
		sim.Func{RecName: "POSHGNN", Start: func(r *dataset.Room, tgt int) sim.Stepper {
			return posh.StartEpisode(r, tgt)
		}},
		exp.POSHGNNRec(posh, "POSHGNN-fused"),
		baselines.Random{Seed: 11},
		baselines.Nearest{},
		baselines.MvAGC{Seed: 12},
		&baselines.GraFrank{Seed: 13},
		baselines.COMURNet{Seed: 14, NodeBudget: 20_000},
	}
}

// stripTiming zeroes the wall-clock field so the rest of the Result can be
// compared with plain ==.
func stripTiming(r metrics.Result) metrics.Result {
	r.StepTime = 0
	return r
}

// TestEvaluateDeterminism asserts that Evaluate returns the exact same
// metrics at every worker count, fused block split included, and that the
// fused POSHGNN scores what the per-episode one does.
func TestEvaluateDeterminism(t *testing.T) {
	room := determinismRoom(t)
	targets := sim.DefaultTargets(room, 3)

	run := func(workers int) map[string]metrics.Result {
		var out map[string]metrics.Result
		var err error
		parallel.WithLimit(workers, func() {
			out, err = sim.Evaluate(determinismRecs(), room, targets, 0.5)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	seq := run(1)
	if f, s := stripTiming(seq["POSHGNN-fused"]), stripTiming(seq["POSHGNN"]); f != s {
		t.Errorf("fused POSHGNN %+v != per-episode POSHGNN %+v", f, s)
	}
	for _, workers := range []int{2, 3, 8} {
		par := run(workers)
		if len(seq) != len(par) {
			t.Fatalf("workers=%d: result count differs: %d vs %d", workers, len(seq), len(par))
		}
		for name, s := range seq {
			p, ok := par[name]
			if !ok {
				t.Fatalf("workers=%d: lost recommender %q", workers, name)
			}
			if stripTiming(s) != stripTiming(p) {
				t.Errorf("%s: workers=1 %+v != workers=%d %+v", name, stripTiming(s), workers, stripTiming(p))
			}
		}
	}
}

// TestEpisodeTraceDeterminism compares the raw rendering traces step by step
// — stronger than the aggregate comparison, since two different traces could
// in principle tie on utility.
func TestEpisodeTraceDeterminism(t *testing.T) {
	room := determinismRoom(t)
	targets := sim.DefaultTargets(room, 2)

	type key struct {
		rec    string
		target int
	}
	run := func(workers int) map[key][][]bool {
		out := make(map[key][][]bool)
		parallel.WithLimit(workers, func() {
			for _, target := range targets {
				dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
				for _, rec := range determinismRecs() {
					_, trace, err := sim.RunEpisodeTrace(rec, room, dog, 0.5)
					if err != nil {
						t.Fatalf("workers=%d %s target=%d: %v", workers, rec.Name(), target, err)
					}
					out[key{rec.Name(), target}] = trace
				}
			}
		})
		return out
	}
	seq := run(1)
	par := run(8)
	for k, st := range seq {
		pt := par[k]
		if len(st) != len(pt) {
			t.Fatalf("%v: trace lengths differ: %d vs %d", k, len(st), len(pt))
		}
		for step := range st {
			for w := range st[step] {
				if st[step][w] != pt[step][w] {
					t.Fatalf("%v: step %d user %d: sequential %v != parallel %v",
						k, step, w, st[step][w], pt[step][w])
				}
			}
		}
	}
}

// TestBuildDOGDeterminism asserts frame-for-frame identical DOGs for any
// worker count.
func TestBuildDOGDeterminism(t *testing.T) {
	room := determinismRoom(t)
	build := func(workers int) *occlusion.DOG {
		var d *occlusion.DOG
		parallel.WithLimit(workers, func() {
			d = occlusion.BuildDOG(1, room.Traj, room.AvatarRadius)
		})
		return d
	}
	seq := build(1)
	par := build(8)
	if len(seq.Frames) != len(par.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(seq.Frames), len(par.Frames))
	}
	for f := range seq.Frames {
		a, b := seq.Frames[f], par.Frames[f]
		for w := 0; w < a.N; w++ {
			na, nb := a.Neighbors(w), b.Neighbors(w)
			if len(na) != len(nb) {
				t.Fatalf("frame %d user %d: %d vs %d neighbors", f, w, len(na), len(nb))
			}
			for k := range na {
				if na[k] != nb[k] {
					t.Fatalf("frame %d user %d neighbor %d: %d vs %d", f, w, k, na[k], nb[k])
				}
			}
		}
	}
}
