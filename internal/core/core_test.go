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

// testRoom builds a deterministic 5-user room: target 0 at origin, user 1 at
// (1.5,0), user 2 at (3,0) behind 1, user 3 at (0,2), user 4 at (-2,-2).
// Frames are frozen for steps+1 ticks. Interfaces: 1 and 3 are MR.
func testRoom(steps int) *dataset.Room {
	positions := []geom.Vec2{{}, {X: 1.5}, {X: 3}, {Z: 2}, {X: -2, Z: -2}}
	pos := make([][]geom.Vec2, steps+1)
	for t := range pos {
		pos[t] = positions
	}
	n := 5
	g := socialgraph.New(n)
	g.AddEdge(0, 3, 1)
	p := make([]float64, n*n)
	s := make([]float64, n*n)
	for w := 1; w < n; w++ {
		p[0*n+w] = 0.5 + 0.1*float64(w)
		s[0*n+w] = 0.2 * float64(w)
	}
	ifaces := make([]occlusion.Interface, n)
	ifaces[0] = occlusion.MR
	ifaces[1] = occlusion.MR
	ifaces[3] = occlusion.MR
	return &dataset.Room{
		Name:         "core-test",
		N:            n,
		Graph:        g,
		Interfaces:   ifaces,
		Traj:         &crowd.Trajectories{Pos: pos},
		P:            p,
		S:            s,
		AvatarRadius: occlusion.DefaultAvatarRadius,
	}
}

func movingRoom(steps int, seed int64) *dataset.Room {
	r, err := dataset.Generate(dataset.Config{
		Kind: dataset.Hubs, PlatformUsers: 200, RoomUsers: 15, T: steps, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return r
}

func TestMIAAggregateBasics(t *testing.T) {
	room := testRoom(1)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	mia := MIA{Enabled: true}
	out := mia.Aggregate(room, dog.At(0), nil, new(DegreeCache), featureDim)
	if out.X.Rows != 5 || out.X.Cols != featureDim {
		t.Fatalf("X shape %dx%d", out.X.Rows, out.X.Cols)
	}
	// Target row must be all zero and masked.
	for j := 0; j < featureDim; j++ {
		if out.X.At(0, j) != 0 {
			t.Error("target row not zeroed")
		}
	}
	if out.Mask.At(0, 0) != 0 {
		t.Error("target not masked")
	}
	// User 2 hides behind physical MR user 1 for the MR target → masked.
	if out.Mask.At(2, 0) != 0 {
		t.Error("physically occluded user not pruned")
	}
	if out.Mask.At(1, 0) != 1 || out.Mask.At(3, 0) != 1 || out.Mask.At(4, 0) != 1 {
		t.Error("visible users wrongly pruned")
	}
	// Utilities feed through unscaled (distance is its own feature column).
	if out.X.At(4, 0) != room.Pref(0, 4) {
		t.Error("preference feature altered")
	}
	if out.X.At(4, 2) <= 0 || out.X.At(4, 2) > 1 {
		t.Error("distance feature out of range")
	}
	// Interface feature: MR users carry 1.
	if out.X.At(1, 3) != 1 || out.X.At(2, 3) != 0 {
		t.Error("interface feature wrong")
	}
	// Masked users contribute zero normalized utility.
	if out.PHat.At(2, 0) != 0 {
		t.Error("pruned user kept utility")
	}
}

func TestMIADisabledPassThrough(t *testing.T) {
	room := testRoom(1)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	mia := MIA{Enabled: false}
	out := mia.Aggregate(room, dog.At(0), dog.At(0), new(DegreeCache), featureDim)
	// Everyone but the target unmasked, zero Δ.
	if out.Mask.At(2, 0) != 1 {
		t.Error("disabled MIA should not prune")
	}
	for w := 0; w < 5; w++ {
		for j := 0; j < deltaDim; j++ {
			if out.Delta.At(w, j) != 0 {
				t.Error("disabled MIA should emit zero delta")
			}
		}
	}
}

func TestMIADeltaReflectsChange(t *testing.T) {
	room := testRoom(1)
	// Frame A: original; frame B: user 2 moved beside user 4 (edge set changes).
	posB := []geom.Vec2{{}, {X: 1.5}, {X: -2, Z: -1.6}, {Z: 2}, {X: -2, Z: -2}}
	frameA := occlusion.BuildStatic(0, room.Traj.Pos[0], room.AvatarRadius)
	frameB := occlusion.BuildStatic(0, posB, room.AvatarRadius)
	mia := MIA{Enabled: true}
	outSame := mia.Aggregate(room, frameA, frameA, new(DegreeCache), featureDim)
	outDiff := mia.Aggregate(room, frameB, frameA, new(DegreeCache), featureDim)
	for w := 0; w < 5; w++ {
		if outSame.Delta.At(w, 1) != 0 || outSame.Delta.At(w, 2) != 0 {
			t.Error("identical frames should give zero structural diff")
		}
		if outSame.Delta.At(w, 0) != 1 {
			t.Error("e0 column must be all ones")
		}
	}
	changed := false
	for w := 0; w < 5; w++ {
		if outDiff.Delta.At(w, 1) != 0 {
			changed = true
		}
	}
	if !changed {
		t.Error("edge change not reflected in delta")
	}
}

func TestMIABlocklist(t *testing.T) {
	room := testRoom(1)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	mia := MIA{Enabled: true, Blocklist: []bool{false, true, false, false, false}}
	out := mia.Aggregate(room, dog.At(0), nil, nil, featureDim)
	if out.Mask.At(1, 0) != 0 {
		t.Error("blocklisted user not masked")
	}
}

// TestFillMatchesReference holds MIA's one fill to refAggregate, the
// independent reference, bit for bit: at width 1 through Aggregate (with the
// degree cache carried as training carries it, with a fresh cache, and in
// the recurrent baselines' 5-column layout without one) and as the column
// blocks of a K-wide float64 batch, as the fused pass calls it. Each case is
// a schedule of batches. A target's prev is the last frame it stepped, so a
// target that skips a step sees an older frame, one stepped twice on the
// same frame sees that frame as prev, and one listed twice in a batch sees
// the same prev in both columns.
func TestFillMatchesReference(t *testing.T) {
	fixed, moving := testRoom(3), movingRoom(6, 3)
	block := make([]bool, fixed.N)
	block[4] = true
	type batch struct {
		at      int // frame index
		targets []int
	}
	every := func(steps int, targets ...int) []batch {
		s := make([]batch, steps)
		for i := range s {
			s[i] = batch{i, targets}
		}
		return s
	}
	cases := []struct {
		name  string
		room  *dataset.Room
		mia   MIA
		steps []batch
	}{
		{"MR target", fixed, MIA{Enabled: true}, every(3, 0)},
		{"VR target", fixed, MIA{Enabled: true}, every(3, 2)},
		{"MIA off", fixed, MIA{}, every(3, 0, 2)},
		{"blocklist", fixed, MIA{Enabled: true, Blocklist: block}, every(3, 0, 2)},
		{"moving room", moving, MIA{Enabled: true}, every(6, 0, 3, 7, 11, 14)},
		{"skip, repeat and duplicate", moving, MIA{Enabled: true},
			[]batch{{0, []int{2, 9}}, {1, []int{2}}, {2, []int{9, 2, 9}}, {3, []int{2}}, {3, []int{2, 2}}, {5, []int{9, 2}}}},
	}
	same := func(name, what string, step int, want, got float64) {
		t.Helper()
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s, batch %d: %s reference %v, fill %v", name, step, what, want, got)
		}
	}
	for _, tc := range cases {
		n := tc.room.N
		type track struct {
			dog       *occlusion.DOG
			prev      *occlusion.StaticGraph
			one, wide DegreeCache
		}
		tracks := map[int]*track{}
		for step, bt := range tc.steps {
			bk := len(bt.targets)
			x, mask, delta := make([]float64, n*bk*featureDim), make([]float64, n*bk), make([]float64, n*bk*deltaDim)
			for _, buf := range [][]float64{x, mask, delta} {
				for i := range buf {
					buf[i] = math.NaN() // a fill that skips an entry fails
				}
			}
			wants := make([]*MIAOutput, bk)
			for k, target := range bt.targets {
				tr := tracks[target]
				if tr == nil {
					tr = &track{dog: occlusion.BuildDOG(target, tc.room.Traj, tc.room.AvatarRadius)}
					tracks[target] = tr
				}
				frame := tr.dog.Frames[bt.at]
				want := refAggregate(&tc.mia, tc.room, frame, tr.prev)
				wants[k] = want
				carried := tc.mia.Aggregate(tc.room, frame, tr.prev, &tr.one, featureDim)
				fresh := tc.mia.Aggregate(tc.room, frame, tr.prev, new(DegreeCache), featureDim)
				five := tc.mia.Aggregate(tc.room, frame, nil, nil, 5)
				if five.Delta != nil {
					t.Fatalf("%s: Δ allocated without a cache", tc.name)
				}
				for w := 0; w < n; w++ {
					same(tc.name, "5-column spare", step, 0, five.X.At(w, featureDim))
					for _, got := range []*MIAOutput{carried, fresh, five} {
						for j := 0; j < featureDim; j++ {
							same(tc.name, "x̂", step, want.X.At(w, j), got.X.At(w, j))
						}
						same(tc.name, "m", step, want.Mask.At(w, 0), got.Mask.At(w, 0))
						same(tc.name, "p̂", step, want.PHat.At(w, 0), got.PHat.At(w, 0))
						same(tc.name, "ŝ", step, want.SHat.At(w, 0), got.SHat.At(w, 0))
					}
					for j := 0; j < deltaDim; j++ {
						same(tc.name, "Δ", step, want.Delta.At(w, j), carried.Delta.At(w, j))
						same(tc.name, "Δ, fresh cache", step, want.Delta.At(w, j), fresh.Delta.At(w, j))
					}
				}
				fill(&tc.mia, tc.room, frame, tr.prev, &tr.wide, k, bk, featureDim, x, mask, delta)
			}
			for k, want := range wants {
				for w := 0; w < n; w++ {
					c := w*bk + k
					for j := 0; j < featureDim; j++ {
						same(tc.name, "batched x̂", step, want.X.At(w, j), x[c*featureDim+j])
					}
					for j := 0; j < deltaDim; j++ {
						same(tc.name, "batched Δ", step, want.Delta.At(w, j), delta[c*deltaDim+j])
					}
					same(tc.name, "batched m", step, want.Mask.At(w, 0), mask[c])
				}
			}
			for _, target := range bt.targets {
				tracks[target].prev = tracks[target].dog.Frames[bt.at]
			}
		}
	}
}

func TestForwardShapesAndRange(t *testing.T) {
	room := testRoom(2)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 1})
	out := m.forward(room, dog.At(0), nil, new(DegreeCache), nil, nil)
	if out.r.Rows() != 5 || out.r.Cols() != 1 {
		t.Fatalf("r shape %dx%d", out.r.Rows(), out.r.Cols())
	}
	if out.h.Cols() != m.cfg.Hidden {
		t.Fatalf("h cols %d", out.h.Cols())
	}
	for w := 0; w < 5; w++ {
		v := out.r.Value.At(w, 0)
		if v < 0 || v > 1 {
			t.Fatalf("r[%d]=%v out of [0,1]", w, v)
		}
	}
	if out.r.Value.At(0, 0) != 0 {
		t.Error("target has nonzero recommendation probability")
	}
	if out.sigma == nil {
		t.Error("LWP enabled but sigma nil")
	}
}

func TestForwardWithoutLWP(t *testing.T) {
	room := testRoom(1)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	m := New(Config{UseMIA: true, UseLWP: false, Seed: 1})
	out := m.forward(room, dog.At(0), nil, new(DegreeCache), nil, nil)
	if out.sigma != nil {
		t.Error("LWP disabled but sigma produced")
	}
	if out.r.Value.At(0, 0) != 0 {
		t.Error("mask not applied without LWP")
	}
}

func TestStepLossNonNegative(t *testing.T) {
	room := testRoom(3)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 2})
	var prevR *tensor.Tensor
	var degrees DegreeCache
	for t2, frame := range dog.Frames {
		var prev *occlusion.StaticGraph
		if t2 > 0 {
			prev = dog.Frames[t2-1]
		}
		out := m.forward(room, frame, prev, &degrees, prevR, nil)
		l := StepLoss(out.r, prevR, out.mia, m.cfg.Alpha, m.cfg.Beta)
		if l.Value.Data[0] < -1e-9 {
			t.Fatalf("loss %v negative at step %d", l.Value.Data[0], t2)
		}
		prevR = tensor.Detach(out.r)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	room := movingRoom(30, 3)
	m := New(Config{UseMIA: true, UseLWP: true, Epochs: 4, Seed: 3})
	stats, err := m.Train([]Episode{{Room: room, Target: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Epochs) != 4 {
		t.Fatalf("epochs = %v", stats.Epochs)
	}
	first, last := stats.Epochs[0].Loss, stats.Epochs[len(stats.Epochs)-1].Loss
	if !(last < first) {
		t.Errorf("training did not reduce loss: %v -> %v", first, last)
	}
	for _, es := range stats.Epochs {
		if math.IsNaN(es.Loss) || math.IsInf(es.Loss, 0) {
			t.Fatalf("unstable training: %v", stats.Epochs)
		}
	}
}

func TestTrainingAblationsRun(t *testing.T) {
	room := movingRoom(10, 4)
	for _, cfg := range []Config{
		{UseMIA: true, UseLWP: false, Epochs: 1, Seed: 5},
		{UseMIA: false, UseLWP: false, Epochs: 1, Seed: 5},
		{UseMIA: false, UseLWP: true, Epochs: 1, Seed: 5},
	} {
		m := New(cfg)
		if _, err := m.Train([]Episode{{Room: room, Target: 1}}); err != nil {
			t.Errorf("ablation %+v failed: %v", cfg, err)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	m := New(DefaultConfig())
	if _, err := m.Train(nil); err == nil {
		t.Error("empty episodes accepted")
	}
	room := testRoom(1)
	if _, err := m.Train([]Episode{{Room: room, Target: 99}}); err == nil {
		t.Error("bad target accepted")
	}
}

func TestSessionStepProducesValidSets(t *testing.T) {
	room := movingRoom(15, 6)
	m := New(Config{UseMIA: true, UseLWP: true, Epochs: 1, Seed: 7})
	if _, err := m.Train([]Episode{{Room: room, Target: 0}}); err != nil {
		t.Fatal(err)
	}
	dog := occlusion.BuildDOG(2, room.Traj, room.AvatarRadius)
	sess := m.StartEpisode(room, 2)
	for ti, frame := range dog.Frames {
		rendered := sess.Step(ti, frame)
		if len(rendered) != room.N {
			t.Fatalf("rendered length %d", len(rendered))
		}
		if rendered[2] {
			t.Fatal("target rendered to herself")
		}
	}
	if probs := sess.Probabilities(); probs == nil || len(probs) != room.N {
		t.Error("probabilities unavailable after stepping")
	}
}

func TestSessionDeterministic(t *testing.T) {
	room := movingRoom(10, 8)
	m := New(Config{UseMIA: true, UseLWP: true, Seed: 9})
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	run := func() [][]bool {
		sess := m.StartEpisode(room, 0)
		var out [][]bool
		for ti, f := range dog.Frames {
			out = append(out, sess.Step(ti, f))
		}
		return out
	}
	a, b := run(), run()
	for ti := range a {
		for w := range a[ti] {
			if a[ti][w] != b[ti][w] {
				t.Fatal("sessions with identical state diverged")
			}
		}
	}
}

func TestStartEpisodeBadTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(DefaultConfig()).StartEpisode(testRoom(1), -1)
}
