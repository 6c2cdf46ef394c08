package baselines

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"after/internal/core"
	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/sim"
)

func room(t testing.TB, seed int64, steps int) *dataset.Room {
	t.Helper()
	r, err := dataset.Generate(dataset.Config{
		Kind: dataset.SMM, PlatformUsers: 300, RoomUsers: 30, T: steps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func countRendered(r []bool) int {
	c := 0
	for _, b := range r {
		if b {
			c++
		}
	}
	return c
}

func TestRandomBaseline(t *testing.T) {
	rm := room(t, 1, 3)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	s := Random{K: 7, Seed: 9}.StartEpisode(rm, 0)
	seen := map[int]bool{}
	for ti, f := range dog.Frames {
		r := s.Step(ti, f)
		if countRendered(r) != 7 {
			t.Fatalf("rendered %d, want 7", countRendered(r))
		}
		if r[0] {
			t.Fatal("target rendered")
		}
		for w, b := range r {
			if b {
				seen[w] = true
			}
		}
	}
	if len(seen) <= 7 {
		t.Error("random baseline never varied its selection")
	}
	// Determinism.
	a := Random{K: 7, Seed: 9}.StartEpisode(rm, 0).Step(0, dog.At(0))
	b := Random{K: 7, Seed: 9}.StartEpisode(rm, 0).Step(0, dog.At(0))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random baseline not seed-deterministic")
		}
	}
}

func TestNearestBaseline(t *testing.T) {
	rm := room(t, 2, 2)
	dog := occlusion.BuildDOG(3, rm.Traj, rm.AvatarRadius)
	s := Nearest{K: 5}.StartEpisode(rm, 3)
	r := s.Step(0, dog.At(0))
	if countRendered(r) != 5 {
		t.Fatalf("rendered %d, want 5", countRendered(r))
	}
	if r[3] {
		t.Fatal("target rendered")
	}
	// Every rendered user must be at least as near as every unrendered one.
	frame := dog.At(0)
	maxIn, minOut := 0.0, 1e18
	for w := 0; w < rm.N; w++ {
		if w == 3 {
			continue
		}
		if r[w] && frame.Dist[w] > maxIn {
			maxIn = frame.Dist[w]
		}
		if !r[w] && frame.Dist[w] < minOut {
			minOut = frame.Dist[w]
		}
	}
	if maxIn > minOut+1e-12 {
		t.Errorf("nearest violated: in=%v out=%v", maxIn, minOut)
	}
}

// TestNearestMatchesSortReference holds Nearest's bounded selection to a
// full sort of the candidates by (distance, user index). Distances are
// drawn from a few values, so exact ties straddle the k-th place, and each
// session steps several frames, so its scratch is reused.
func TestNearestMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		target, k := rng.Intn(n), 1+rng.Intn(n-1)
		s := Nearest{K: k}.StartEpisode(&dataset.Room{N: n}, target)
		levels := 1 + rng.Intn(4)
		for step := 0; step < 3; step++ {
			dist := make([]float64, n)
			for w := range dist {
				if w != target {
					dist[w] = float64(rng.Intn(levels)) / 2
				}
			}
			var cands []int
			for w := 0; w < n; w++ {
				if w != target {
					cands = append(cands, w)
				}
			}
			sort.Slice(cands, func(a, b int) bool {
				u, w := cands[a], cands[b]
				return dist[u] < dist[w] || dist[u] == dist[w] && u < w
			})
			want := make([]bool, n)
			for _, w := range cands[:k] {
				want[w] = true
			}
			got := s.Step(step, &occlusion.StaticGraph{N: n, Target: target, Dist: dist})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d (n=%d k=%d target=%d dist=%v): rendered %v, want %v",
					trial, step, n, k, target, dist, got, want)
			}
		}
	}
}

func TestRenderAllBaseline(t *testing.T) {
	rm := room(t, 3, 1)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	r := RenderAll{}.StartEpisode(rm, 0).Step(0, dog.At(0))
	if countRendered(r) != rm.N-1 {
		t.Errorf("rendered %d, want %d", countRendered(r), rm.N-1)
	}
	if r[0] {
		t.Error("target rendered")
	}
}

func TestClampK(t *testing.T) {
	if clampK(0, 30) != DefaultRenderCount {
		t.Error("zero K should default")
	}
	if clampK(100, 5) != 4 {
		t.Error("K must cap at N-1")
	}
	if clampK(3, 30) != 3 {
		t.Error("valid K altered")
	}
}

func TestMvAGCStaticGroups(t *testing.T) {
	rm := room(t, 4, 3)
	dog := occlusion.BuildDOG(2, rm.Traj, rm.AvatarRadius)
	s := MvAGC{Groups: 4, Seed: 1}.StartEpisode(rm, 2)
	first := s.Step(0, dog.At(0))
	if first[2] {
		t.Fatal("target rendered")
	}
	if countRendered(first) == 0 {
		t.Fatal("empty group for target")
	}
	for ti := 1; ti <= 3; ti++ {
		r := s.Step(ti, dog.At(ti))
		for w := range r {
			if r[w] != first[w] {
				t.Fatal("grouping recommendation changed over time")
			}
		}
	}
	// Different targets in the same group see each other.
	members := []int{}
	for w, b := range first {
		if b {
			members = append(members, w)
		}
	}
	if len(members) > 0 {
		other := MvAGC{Groups: 4, Seed: 1}.StartEpisode(rm, members[0]).Step(0, dog.At(0))
		if !other[2] {
			t.Error("group membership not symmetric")
		}
	}
}

func TestMvAGCCoversAllUsers(t *testing.T) {
	rm := room(t, 5, 1)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	b := MvAGC{Groups: 5, Seed: 2}
	// Union over all targets of {target} ∪ rendered must equal V when
	// clusters partition the room.
	coveredBySelf := 0
	for target := 0; target < rm.N; target++ {
		r := b.StartEpisode(rm, target).Step(0, dog.At(0))
		if r[target] {
			t.Fatal("target rendered")
		}
		coveredBySelf++
		_ = r
	}
	if coveredBySelf != rm.N {
		t.Error("unexpected")
	}
}

func TestGraFrankRanksFriendsAboveStrangers(t *testing.T) {
	rm := room(t, 6, 1)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	gf := &GraFrank{K: 8, Iters: 200, Seed: 3}
	r := gf.StartEpisode(rm, 0).Step(0, dog.At(0))
	if countRendered(r) != 8 {
		t.Fatalf("rendered %d, want 8", countRendered(r))
	}
	if r[0] {
		t.Fatal("target rendered")
	}
	// The rendered set should be enriched in the target's friends relative
	// to the base rate.
	friends := rm.Graph.Neighbors(0)
	if len(friends) >= 2 {
		friendSet := map[int]bool{}
		for _, f := range friends {
			friendSet[f] = true
		}
		inTop := 0
		for w, b := range r {
			if b && friendSet[w] {
				inTop++
			}
		}
		baseRate := float64(len(friends)) / float64(rm.N-1)
		topRate := float64(inTop) / 8.0
		if topRate < baseRate {
			t.Errorf("BPR ranking no better than chance: top %.2f vs base %.2f", topRate, baseRate)
		}
	}
}

func TestGraFrankCachesPerRoom(t *testing.T) {
	rm := room(t, 7, 1)
	gf := &GraFrank{K: 5, Iters: 50, Seed: 4}
	gf.StartEpisode(rm, 0)
	if len(gf.cache) != 1 {
		t.Fatal("embeddings not cached")
	}
	emb := gf.cache[rm]
	gf.StartEpisode(rm, 1)
	if gf.cache[rm] != emb {
		t.Error("cache miss for same room")
	}
}

func TestRecurrentBaselinesTrainAndRun(t *testing.T) {
	rm := room(t, 8, 10)
	for _, build := range []func() *Recurrent{
		func() *Recurrent { return NewTGCN(RecurrentConfig{Epochs: 2, Seed: 5}) },
		func() *Recurrent { return NewDCRNN(RecurrentConfig{Epochs: 2, Seed: 5}) },
	} {
		m := build()
		validations := 0
		score, err := m.Train([]core.Episode{{Room: rm, Target: 0}}, func() (float64, error) {
			validations++
			res, err := sim.Evaluate([]sim.Recommender{m}, rm, []int{1}, 0.5)
			return res[m.Name()].Utility, err
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if validations != 2 {
			t.Fatalf("%s: %d validations in 2 epochs", m.Name(), validations)
		}
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Fatalf("%s: best validation score %v", m.Name(), score)
		}
		dog := occlusion.BuildDOG(1, rm.Traj, rm.AvatarRadius)
		s := m.StartEpisode(rm, 1)
		for ti, f := range dog.Frames {
			r := s.Step(ti, f)
			if len(r) != rm.N {
				t.Fatalf("%s: bad length", m.Name())
			}
			if r[1] {
				t.Fatalf("%s: target rendered", m.Name())
			}
		}
	}
}

func TestRecurrentTrainNoEpisodes(t *testing.T) {
	validate := func() (float64, error) { return 0, nil }
	if _, err := NewTGCN(RecurrentConfig{}).Train(nil, validate); err == nil {
		t.Error("empty training accepted")
	}
}

func TestCOMURNetOcclusionFree(t *testing.T) {
	rm := room(t, 9, 3)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	s := COMURNet{K: 10, Seed: 6, LagSteps: -1}.StartEpisode(rm, 0)
	for ti, f := range dog.Frames {
		r := s.Step(ti, f)
		if countRendered(r) == 0 {
			t.Fatal("empty recommendation")
		}
		if countRendered(r) > 10 {
			t.Fatalf("rendered %d > K", countRendered(r))
		}
		if r[0] {
			t.Fatal("target rendered")
		}
		for i := 0; i < rm.N; i++ {
			if !r[i] {
				continue
			}
			for _, j := range f.Neighbors(i) {
				if r[j] {
					t.Fatalf("step %d: rendered users %d and %d occlude", ti, i, j)
				}
			}
		}
	}
}

func TestCOMURNetFlickers(t *testing.T) {
	// The stochastic policy must churn the set between steps even on a
	// frozen scene; that is what destroys its social presence.
	rm := room(t, 10, 4)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	s := COMURNet{K: 8, Seed: 7, PolicyNoise: 0.3, LagSteps: -1}.StartEpisode(rm, 0)
	prev := s.Step(0, dog.At(0))
	changed := 0
	for ti := 1; ti <= 4; ti++ {
		cur := s.Step(ti, dog.At(ti))
		for w := range cur {
			if cur[w] != prev[w] {
				changed++
			}
		}
		prev = cur
	}
	if changed == 0 {
		t.Error("policy noise produced perfectly stable sets")
	}
}

func TestCOMURNetLagDelaysAndEmptiesPrefix(t *testing.T) {
	rm := room(t, 12, 6)
	dog := occlusion.BuildDOG(0, rm.Traj, rm.AvatarRadius)
	lagged := COMURNet{K: 8, Seed: 3, LagSteps: 2}.StartEpisode(rm, 0)
	ideal := COMURNet{K: 8, Seed: 3, LagSteps: -1}.StartEpisode(rm, 0)
	var laggedSets, idealSets [][]bool
	for ti := 0; ti <= 6; ti++ {
		laggedSets = append(laggedSets, lagged.Step(ti, dog.At(ti)))
		idealSets = append(idealSets, ideal.Step(ti, dog.At(ti)))
	}
	for ti := 0; ti < 2; ti++ {
		if countRendered(laggedSets[ti]) != 0 {
			t.Errorf("step %d: lagged solver rendered before its first solution landed", ti)
		}
	}
	// From step 2 on, the lagged output equals the ideal solution of the
	// frame two steps earlier (same seed, same noise sequence).
	for ti := 2; ti <= 6; ti++ {
		for w := range laggedSets[ti] {
			if laggedSets[ti][w] != idealSets[ti-2][w] {
				t.Fatalf("step %d: lagged set is not the stale solution", ti)
			}
		}
	}
}

func TestAllBaselinesThroughHarness(t *testing.T) {
	rm := room(t, 11, 5)
	recs := []sim.Recommender{
		Random{K: 6, Seed: 1},
		Nearest{K: 6},
		RenderAll{},
		MvAGC{Groups: 4, Seed: 1},
		&GraFrank{K: 6, Iters: 60, Seed: 1},
		NewTGCN(RecurrentConfig{Epochs: 1, Seed: 1}),
		NewDCRNN(RecurrentConfig{Epochs: 1, Seed: 1}),
		COMURNet{K: 6, Seed: 1, NodeBudget: 5000, LagSteps: -1},
	}
	results, err := sim.Evaluate(recs, rm, []int{0, 7}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(recs) {
		t.Fatalf("got %d results", len(results))
	}
	for name, res := range results {
		if res.Utility < 0 {
			t.Errorf("%s: negative utility %v", name, res.Utility)
		}
		if res.OcclusionRate < 0 || res.OcclusionRate > 1 {
			t.Errorf("%s: occlusion rate %v", name, res.OcclusionRate)
		}
	}
	if results["COMURNet"].OcclusionRate != 0 {
		t.Errorf("COMURNet occlusion = %v, want 0", results["COMURNet"].OcclusionRate)
	}
}
