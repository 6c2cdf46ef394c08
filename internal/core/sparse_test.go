package core

import (
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
