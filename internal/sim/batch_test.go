package sim

import (
	"slices"
	"sync"
	"testing"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/occlusion"
	"after/internal/parallel"
)

// patternRec renders a deterministic function of (target, t, w) so the fused
// and per-episode routes are comparable bit-for-bit. A non-nil log records
// every StepTargets call of every session it starts.
type patternRec struct{ log *callLog }

// callLog records fused calls from sessions that may step concurrently.
type callLog struct {
	mu    sync.Mutex
	calls []fusedCall
}

type fusedCall struct {
	t       int
	targets []int
}

func patternOut(n, target, t int) []bool {
	out := make([]bool, n)
	for w := range out {
		out[w] = w != target && (w+t+target)%3 == 0
	}
	return out
}

func (patternRec) Name() string { return "pattern" }

func (patternRec) StartEpisode(rm *dataset.Room, target int) Stepper {
	return patternStepper{n: rm.N, target: target}
}

type patternStepper struct{ n, target int }

func (s patternStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	return patternOut(s.n, s.target, t)
}

func (r patternRec) StartBatch(rm *dataset.Room) BatchStepper {
	return patternBatch{n: rm.N, log: r.log}
}

type patternBatch struct {
	n   int
	log *callLog
}

func (b patternBatch) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	if b.log != nil {
		b.log.mu.Lock()
		b.log.calls = append(b.log.calls, fusedCall{t, append([]int(nil), targets...)})
		b.log.mu.Unlock()
	}
	out := make([][]bool, len(targets))
	for i, target := range targets {
		out[i] = patternOut(b.n, target, t)
	}
	return out
}

// TestEvaluateRoutesBatchRecommender: a BatchRecommender goes through
// min(workers, targets) fused sessions, each stepping one contiguous block
// of the targets once per frame, so that per frame the blocks cover every
// target exactly once; with one worker that is one full-width call per
// frame, in frame order. Its scores match the per-episode route exactly
// (same deterministic outputs either way).
func TestEvaluateRoutesBatchRecommender(t *testing.T) {
	rm := room(t, 7, 5)
	targets := []int{0, 6, 12, 18}
	steps := rm.T() + 1
	// Erase the batch capability: Func only forwards StartEpisode.
	seq := Func{RecName: "pattern", Start: patternRec{}.StartEpisode}
	want, err := Evaluate([]Recommender{seq}, rm, targets, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 2, len(targets) + 1} {
		log := &callLog{}
		var got map[string]metrics.Result
		parallel.WithLimit(limit, func() {
			got, err = Evaluate([]Recommender{patternRec{log: log}, fixedRec("other", 1)}, rm, targets, 0.5)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", limit, err)
		}
		blocks := min(limit, len(targets))
		if len(log.calls) != blocks*steps {
			t.Fatalf("workers=%d: %d fused calls, want %d blocks × %d frames", limit, len(log.calls), blocks, steps)
		}
		byFrame := make([][]fusedCall, steps)
		for k, c := range log.calls {
			if limit == 1 && c.t != k {
				t.Fatalf("workers=1: call %d stepped frame %d, want frames in order", k, c.t)
			}
			byFrame[c.t] = append(byFrame[c.t], c)
		}
		for f, calls := range byFrame {
			if len(calls) != blocks {
				t.Fatalf("workers=%d frame %d: %d fused calls, want %d", limit, f, len(calls), blocks)
			}
			// Each call must be targets[lo:hi] for some lo; sorted by lo the
			// blocks must tile targets end to end.
			slices.SortFunc(calls, func(a, b fusedCall) int { return a.targets[0] - b.targets[0] })
			next := 0
			for _, c := range calls {
				if next+len(c.targets) > len(targets) || !slices.Equal(c.targets, targets[next:next+len(c.targets)]) {
					t.Fatalf("workers=%d frame %d: blocks %v do not tile targets %v", limit, f, calls, targets)
				}
				next += len(c.targets)
			}
			if next != len(targets) {
				t.Fatalf("workers=%d frame %d: blocks %v cover %d of %d targets", limit, f, calls, next, len(targets))
			}
		}
		g, w := got["pattern"], want["pattern"]
		g.StepTime, w.StepTime = 0, 0
		if g != w {
			t.Fatalf("workers=%d: batched route scored %+v, sequential route %+v", limit, g, w)
		}
	}
}

// TestRunBatchedEpisodesMatchesRunEpisode: fused scoring over several dogs
// equals RunEpisode target by target.
func TestRunBatchedEpisodesMatchesRunEpisode(t *testing.T) {
	rm := room(t, 8, 4)
	rec := patternRec{}
	targets := []int{3, 9, 15}
	dogs := make([]*occlusion.DOG, len(targets))
	for i, target := range targets {
		dogs[i] = occlusion.BuildDOG(target, rm.Traj, rm.AvatarRadius)
	}
	batched, err := RunBatchedEpisodes(rec, rm, dogs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, dog := range dogs {
		want, err := RunEpisode(rec, rm, dog, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got := batched[i]
		if got.Target != dog.Target || got.Recommender != "pattern" {
			t.Fatalf("result identity %+v", got)
		}
		if got.Utility != want.Utility || got.Preference != want.Preference || got.Social != want.Social {
			t.Fatalf("target %d: batched %+v vs episode %+v", dog.Target, got.Result, want.Result)
		}
	}
}

// TestRunBatchedEpisodesErrors: empty input, out-of-range targets, and
// mismatched episode lengths are rejected.
func TestRunBatchedEpisodesErrors(t *testing.T) {
	rm := room(t, 9, 3)
	rec := patternRec{}
	if _, err := RunBatchedEpisodes(rec, rm, nil, 0.5); err == nil {
		t.Error("empty batch accepted")
	}
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	bad := occlusion.BuildDOG(1, rm.Traj, rm.AvatarRadius)
	bad.Target = 99
	if _, err := RunBatchedEpisodes(rec, rm, []*occlusion.DOG{dog, bad}, 0.5); err == nil {
		t.Error("out-of-range target accepted")
	}
	short := occlusion.BuildDOG(1, rm.Traj, rm.AvatarRadius)
	short.Frames = short.Frames[:1]
	if _, err := RunBatchedEpisodes(rec, rm, []*occlusion.DOG{dog, short}, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
	empty := occlusion.BuildDOG(2, rm.Traj, rm.AvatarRadius)
	empty.Frames = nil
	if _, err := RunBatchedEpisodes(rec, rm, []*occlusion.DOG{empty}, 0.5); err == nil {
		t.Error("empty episode accepted")
	}
}
