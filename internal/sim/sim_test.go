package sim

import (
	"slices"
	"strings"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/parallel"
)

func room(t testing.TB, seed int64, steps int) *dataset.Room {
	t.Helper()
	r, err := dataset.Generate(dataset.Config{
		Kind: dataset.SMM, PlatformUsers: 300, RoomUsers: 25, T: steps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fixedRec renders a constant set.
type fixedStepper struct{ rendered []bool }

func (s fixedStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := make([]bool, len(s.rendered))
	copy(out, s.rendered)
	return out
}

func fixedRec(name string, pick ...int) Func {
	return Func{RecName: name, Start: func(rm *dataset.Room, target int) Stepper {
		rendered := make([]bool, rm.N)
		for _, w := range pick {
			if w != target {
				rendered[w] = true
			}
		}
		return fixedStepper{rendered: rendered}
	}}
}

func TestFuncAdapter(t *testing.T) {
	f := fixedRec("probe", 1, 2)
	if f.Name() != "probe" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestRunEpisodeTimesSteps(t *testing.T) {
	rm := room(t, 1, 5)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	slow := Func{RecName: "slow", Start: func(rm *dataset.Room, target int) Stepper {
		return Func{}.slowStepper(rm.N)
	}}
	res, err := RunEpisode(slow, rm, dog, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepTime < 200*time.Microsecond {
		t.Errorf("StepTime = %v, expected ≥ sleep duration", res.StepTime)
	}
	if res.Recommender != "slow" {
		t.Errorf("Recommender = %q", res.Recommender)
	}
}

// slowStepper helps verify timing; defined on Func to keep the test local.
func (Func) slowStepper(n int) Stepper {
	return sleepyStepper{n: n}
}

type sleepyStepper struct{ n int }

func (s sleepyStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	time.Sleep(300 * time.Microsecond)
	return make([]bool, s.n)
}

func TestEvaluateSharedScene(t *testing.T) {
	rm := room(t, 2, 4)
	recs := []Recommender{fixedRec("a", 1, 2, 3), fixedRec("b")}
	res, err := Evaluate(recs, rm, []int{0, 5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res["b"].Utility != 0 {
		t.Errorf("empty recommender scored %v", res["b"].Utility)
	}
	if res["a"].Utility < 0 {
		t.Error("negative utility")
	}
}

// shortBatch is patternRec whose fused sessions render one user too few.
type shortBatch struct{ patternRec }

func (shortBatch) StartBatch(rm *dataset.Room) BatchStepper { return patternBatch{n: rm.N - 1} }

func TestEvaluateErrors(t *testing.T) {
	rm := room(t, 3, 2)
	if _, err := Evaluate([]Recommender{fixedRec("a")}, rm, nil, 0.5); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := Evaluate([]Recommender{fixedRec("a")}, rm, []int{99}, 0.5); err == nil {
		t.Error("bad target accepted")
	}
	// Both recommenders render sets one user short, so every unit fails to
	// score; the fused blocks are queued first, so their error wins even
	// over an episode listed before the batch recommender.
	short := Func{RecName: "short", Start: func(rm *dataset.Room, _ int) Stepper {
		return fixedStepper{rendered: make([]bool, rm.N-1)}
	}}
	for _, workers := range []int{1, 2, 8} {
		var err error
		parallel.WithLimit(workers, func() {
			_, err = Evaluate([]Recommender{short, shortBatch{}}, rm, []int{0, 5, 10}, 0.5)
		})
		if err == nil || !strings.Contains(err.Error(), "sim: pattern batched:") {
			t.Errorf("workers=%d: err = %v, want the batched error", workers, err)
		}
	}
}

func TestRunEpisodeBadTarget(t *testing.T) {
	rm := room(t, 4, 2)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	dog.Target = -1
	if _, err := RunEpisode(fixedRec("a"), rm, dog, 0.5); err == nil {
		t.Error("bad target accepted")
	}
}

func TestDefaultTargets(t *testing.T) {
	rm := room(t, 5, 1)
	ts := DefaultTargets(rm, 5)
	if len(ts) != 5 {
		t.Fatalf("targets = %v", ts)
	}
	seen := map[int]bool{}
	for _, x := range ts {
		if x < 0 || x >= rm.N {
			t.Fatalf("target %d out of range", x)
		}
		if seen[x] {
			t.Fatal("duplicate target")
		}
		seen[x] = true
	}
	if got := DefaultTargets(rm, 0); len(got) != 1 {
		t.Errorf("k=0 targets = %v", got)
	}
	if got := DefaultTargets(&dataset.Room{N: 5}, 8); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("k=8 on a 5-user room: targets = %v, want every user", got)
	}
}

func TestRenderingStableSetEarnsSocial(t *testing.T) {
	rm := room(t, 6, 6)
	// Find a friend pair so social presence is nonzero.
	target := -1
	var friend int
	for v := 0; v < rm.N && target < 0; v++ {
		for w := 0; w < rm.N; w++ {
			if rm.Social(v, w) > 0 {
				target, friend = v, w
				break
			}
		}
	}
	if target < 0 {
		t.Skip("no friend pair in sampled room")
	}
	dog := occlusion.BuildDOG(target, rm.Traj, rm.AvatarRadius)
	res, err := RunEpisode(fixedRec("stable", friend), rm, dog, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// The friend may be occluded in some frames, but over 7 frames a static
	// singleton rendering should earn some social presence unless always
	// blocked; tolerate zero only if preference is zero too (fully blocked).
	if res.Preference > 0 && res.Social == 0 && res.Preference > 0.9*6*rm.Pref(target, friend) {
		t.Errorf("continuously visible friend earned no social presence: %+v", res)
	}
}
