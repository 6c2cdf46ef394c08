package core

import (
	"math"
	"testing"

	"after/internal/crowd"
	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/socialgraph"
	"after/internal/tensor"
)

// plainRoom builds a static room over the given positions with generic
// utilities, for hand-constructed topology tests (edgeless, clique).
func plainRoom(positions []geom.Vec2, steps int) *dataset.Room {
	n := len(positions)
	pos := make([][]geom.Vec2, steps+1)
	for t := range pos {
		pos[t] = positions
	}
	p := make([]float64, n*n)
	s := make([]float64, n*n)
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if v == w {
				continue
			}
			p[v*n+w] = 0.3 + 0.5*float64((v+w)%3)/2
			s[v*n+w] = 0.1 * float64((v*w)%7)
		}
	}
	ifaces := make([]occlusion.Interface, n)
	for i := 0; i < n; i += 2 {
		ifaces[i] = occlusion.MR
	}
	return &dataset.Room{
		Name:         "sparse-test",
		N:            n,
		Graph:        socialgraph.New(n),
		Interfaces:   ifaces,
		Traj:         &crowd.Trajectories{Pos: pos},
		P:            p,
		S:            s,
		AvatarRadius: occlusion.DefaultAvatarRadius,
	}
}

// edgelessRoom spreads users far apart: every frame of its DOG is edgeless.
func edgelessRoom() *dataset.Room {
	return plainRoom([]geom.Vec2{{}, {X: 8}, {Z: 8}, {X: -8}, {Z: -8}, {X: 8, Z: 8}}, 3)
}

// cliqueRoom stacks everyone inside one avatar radius: every frame is a
// complete graph over the non-target users.
func cliqueRoom() *dataset.Room {
	return plainRoom([]geom.Vec2{{}, {X: 0.04}, {X: -0.04}, {Z: 0.04}, {Z: -0.04}}, 3)
}

// runSessionProbs advances a fresh autodiff reference stepper over every
// frame of the room's DOG and records the per-step probability vector r_t.
func runSessionProbs(m *POSHGNN, room *dataset.Room, target int) [][]float64 {
	dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
	sess := startRef(m, room, target)
	out := make([][]float64, 0, len(dog.Frames))
	for ti, frame := range dog.Frames {
		sess.Step(ti, frame)
		probs := append([]float64(nil), sess.Probabilities()...)
		out = append(out, probs)
	}
	return out
}

// TestForwardSparseMatchesDense is the tentpole property test: with identical
// weights, the sparse CSR message-passing path must reproduce the dense
// adjacency path to ≤1e-12 at every step, on random moving rooms as well as
// hand-built edgeless and fully-occluded scenes.
func TestForwardSparseMatchesDense(t *testing.T) {
	rooms := map[string]*dataset.Room{
		"moving-a": movingRoom(6, 31),
		"moving-b": movingRoom(6, 32),
		"edgeless": edgelessRoom(),
		"clique":   cliqueRoom(),
	}
	for name, room := range rooms {
		for _, cfg := range []Config{
			{UseMIA: true, UseLWP: true, Seed: 9},
			{UseMIA: false, UseLWP: false, Seed: 9},
		} {
			sparse := New(cfg)
			dense := New(cfg)
			if err := sparse.Params().CopyTo(dense.Params()); err != nil {
				t.Fatal(err)
			}
			dense.denseAdj = true
			sp := runSessionProbs(sparse, room, 0)
			dp := runSessionProbs(dense, room, 0)
			for ti := range sp {
				for w := range sp[ti] {
					if d := math.Abs(sp[ti][w] - dp[ti][w]); d > 1e-12 {
						t.Fatalf("%s (MIA=%v) step %d user %d: |sparse-dense|=%g",
							name, cfg.UseMIA, ti, w, d)
					}
				}
			}
		}
	}
}

// TestTrainSparseMatchesDense extends the equivalence through training: the
// per-epoch losses of the sparse and dense paths must agree to ≤1e-9 (the
// looser bound absorbs accumulation across BPTT windows and Adam steps).
func TestTrainSparseMatchesDense(t *testing.T) {
	cfg := Config{UseMIA: true, UseLWP: true, Epochs: 3, Seed: 13}
	room := movingRoom(8, 33)
	eps := []Episode{{Room: room, Target: 0}}

	sparse := New(cfg)
	dense := New(cfg)
	if err := sparse.Params().CopyTo(dense.Params()); err != nil {
		t.Fatal(err)
	}
	dense.denseAdj = true
	ss, err := sparse.Train(eps)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dense.Train(eps)
	if err != nil {
		t.Fatal(err)
	}
	sl, dl := ss.Epochs, ds.Epochs
	if len(sl) != len(dl) {
		t.Fatalf("epoch count mismatch: %d vs %d", len(sl), len(dl))
	}
	for e := range sl {
		if d := math.Abs(sl[e].Loss - dl[e].Loss); d > 1e-9 {
			t.Fatalf("epoch %d: |sparse-dense| loss = %g (sparse %g dense %g)",
				e, d, sl[e].Loss, dl[e].Loss)
		}
	}
}

// TestRawDecodeBudgetZeroMeansUnlimited pins the MaxRender budget convention
// on the RawDecode path: a non-positive budget means unlimited, matching
// decodeRecommendation. (The old RawDecode loop read budget 0 as "render
// nothing" — the exact opposite.)
func TestRawDecodeBudgetZeroMeansUnlimited(t *testing.T) {
	room := testRoom(1)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	for _, budget := range []int{0, -1} {
		m := New(Config{UseMIA: false, UseLWP: true, RawDecode: true, Threshold: 1e-12, Seed: 6})
		// withDefaults maps MaxRender 0 → 10, so drive the decode-stage
		// convention directly (in-package knob).
		m.cfg.MaxRender = budget
		sess := m.StartEpisode(room, 0)
		rendered := sess.Step(0, dog.At(0))
		if got := countTrue(rendered); got != room.N-1 {
			t.Errorf("budget %d: rendered %d users, want unlimited (%d)",
				budget, got, room.N-1)
		}
	}
	// Sanity: a positive budget still caps the raw decode.
	m := New(Config{UseMIA: false, UseLWP: true, RawDecode: true, Threshold: 1e-12, MaxRender: 2, Seed: 6})
	sess := m.StartEpisode(room, 0)
	if got := countTrue(sess.Step(0, dog.At(0))); got != 2 {
		t.Errorf("budget 2: rendered %d users", got)
	}
}

// TestDecodeTieBreakDeterministic: equal probabilities must decode to the
// ascending-index prefix, identically on every call (sort.Slice is unstable;
// the comparator's index tie-break is what makes this hold).
func TestDecodeTieBreakDeterministic(t *testing.T) {
	// Spread users so the frame is edgeless and only the order decides.
	pos := []geom.Vec2{{}, {X: 8}, {Z: 8}, {X: -8}, {Z: -8}, {X: 8, Z: -8}}
	frame := occlusion.BuildStatic(0, pos, occlusion.DefaultAvatarRadius)
	r := tensor.FromColumn([]float64{0, 0.5, 0.5, 0.5, 0.5, 0.5})
	for trial := 0; trial < 50; trial++ {
		rendered := decodeRecommendation(r, frame, 0, 0.5, 2)
		if !rendered[1] || !rendered[2] || countTrue(rendered) != 2 {
			t.Fatalf("trial %d: tie-break nondeterministic or wrong: %v", trial, rendered)
		}
	}
}
