package occlusion

import (
	"math"
	"math/rand"
	"testing"

	"after/internal/crowd"
	"after/internal/geom"
)

// lineScene: target at origin; users 1,2 along +X at 2m and 4m (2 behind 1);
// user 3 along +Z at 3m, well separated.
func lineScene() []geom.Vec2 {
	return []geom.Vec2{
		{X: 0, Z: 0},
		{X: 2, Z: 0},
		{X: 4, Z: 0},
		{X: 0, Z: 3},
	}
}

func allVR(n int) []Interface { return make([]Interface, n) }

func TestBuildStaticEdges(t *testing.T) {
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	if !g.Occludes(1, 2) {
		t.Error("collinear users should occlude")
	}
	if g.Occludes(1, 3) || g.Occludes(2, 3) {
		t.Error("perpendicular user should not occlude")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
}

func TestTargetIsIsolated(t *testing.T) {
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	if g.Occludes(0, 1) || g.Occludes(1, 0) {
		t.Error("target must not participate in occlusion edges")
	}
	if len(g.Neighbors(0)) != 0 {
		t.Error("target has neighbors")
	}
	if g.Dist[0] != 0 {
		t.Errorf("target distance = %v", g.Dist[0])
	}
}

func TestAdjacencyMatrixMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos := make([]geom.Vec2, 15)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64() * 10, Z: rng.Float64() * 10}
	}
	g := BuildStatic(3, pos, DefaultAvatarRadius)
	a := adjacencyMatrix(g)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			want := 0.0
			if g.Occludes(i, j) {
				want = 1
			}
			if a.At(i, j) != want {
				t.Fatalf("adjacency mismatch at %d,%d", i, j)
			}
			if a.At(i, j) != a.At(j, i) {
				t.Fatalf("adjacency asymmetric at %d,%d", i, j)
			}
		}
	}
}

func TestVisibleSetBasic(t *testing.T) {
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	rendered := []bool{false, true, true, true}
	vis := g.VisibleSet(rendered, allVR(4))
	if vis[1] || vis[2] {
		t.Error("overlapping rendered pair must both be unclear (symmetric occlusion)")
	}
	if !vis[3] {
		t.Error("clear user should be visible")
	}
	if vis[0] {
		t.Error("target can never be visible to herself")
	}
}

func TestVisibleSetUnrenderedDoesNotBlock(t *testing.T) {
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	// Only the far user rendered: nothing visible blocks it (all VR).
	rendered := []bool{false, false, true, false}
	vis := g.VisibleSet(rendered, allVR(4))
	if !vis[2] {
		t.Error("far user should be visible when the blocker is hidden")
	}
}

func TestMRBodyBlocksEvenWhenNotRendered(t *testing.T) {
	// MR target, user 1 is a co-located MR participant standing in front of
	// rendered VR user 2: the physical body occludes regardless of rendering.
	ifaces := []Interface{MR, MR, VR, VR}
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	rendered := []bool{false, false, true, false}
	vis := g.VisibleSet(rendered, ifaces)
	if vis[2] {
		t.Error("physical MR body must block the view for an MR target")
	}
}

func TestVRTargetIgnoresPhysicalBodies(t *testing.T) {
	// VR target: MR users are just avatars; unrendered ones do not block.
	ifaces := []Interface{VR, MR, VR, VR}
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	rendered := []bool{false, false, true, false}
	vis := g.VisibleSet(rendered, ifaces)
	if !vis[2] {
		t.Error("VR target should not be blocked by unrendered MR bodies")
	}
}

func TestRenderedMRUserCanBeVisible(t *testing.T) {
	ifaces := []Interface{MR, MR, VR, VR}
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	rendered := []bool{false, true, false, false}
	vis := g.VisibleSet(rendered, ifaces)
	if !vis[1] {
		t.Error("front MR user rendered should be visible")
	}
}

func TestPhysicalMask(t *testing.T) {
	ifaces := []Interface{MR, MR, VR, VR}
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	m := g.PhysicalMask(ifaces)
	if m[0] != 0 {
		t.Error("target must be masked")
	}
	if m[1] != 1 {
		t.Error("front MR participant should not be masked")
	}
	if m[2] != 0 {
		t.Error("user behind a physical MR body must be masked")
	}
	if m[3] != 1 {
		t.Error("clear user should not be masked")
	}
}

func TestPhysicalMaskVRTarget(t *testing.T) {
	ifaces := []Interface{VR, MR, VR, VR}
	g := BuildStatic(0, lineScene(), DefaultAvatarRadius)
	m := g.PhysicalMask(ifaces)
	for w := 1; w < 4; w++ {
		if m[w] != 1 {
			t.Errorf("VR target mask[%d] = %v, want 1", w, m[w])
		}
	}
}

func TestBuildDOGFrames(t *testing.T) {
	room := crowd.Rect{Max: geom.Vec2{X: 10, Z: 10}}
	tr := crowd.NewSimulator(room, 8, 9, crowd.Config{}).Run(20, 0.1)
	d := BuildDOG(2, tr, DefaultAvatarRadius)
	if d.T() != 20 {
		t.Errorf("T = %d", d.T())
	}
	if d.At(5).Target != 2 {
		t.Error("wrong target in frame")
	}
	for ti, f := range d.Frames {
		if f.N != 8 {
			t.Fatalf("frame %d has %d users", ti, f.N)
		}
	}
}

// Property: occlusion edges only connect users whose angular separation is
// small relative to their subtended widths; random far-apart users rarely
// occlude, and the relation is symmetric.
func TestOccludesSymmetricRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		pos := make([]geom.Vec2, 12)
		for i := range pos {
			pos[i] = geom.Vec2{X: rng.Float64() * 10, Z: rng.Float64() * 10}
		}
		g := BuildStatic(0, pos, DefaultAvatarRadius)
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				if g.Occludes(i, j) != g.Occludes(j, i) {
					t.Fatal("Occludes asymmetric")
				}
			}
		}
	}
}

// Property: gradual movement changes the occlusion graph gradually — the
// assumption PDR exploits (Sec. IV-B). Over a short dt, the symmetric
// difference in edges between consecutive frames stays far below the total
// possible edge count.
func TestConsecutiveFramesChangeGradually(t *testing.T) {
	room := crowd.Rect{Max: geom.Vec2{X: 10, Z: 10}}
	tr := crowd.NewSimulator(room, 30, 11, crowd.Config{}).Run(50, 0.05)
	d := BuildDOG(0, tr, DefaultAvatarRadius)
	for ti := 1; ti < len(d.Frames); ti++ {
		prev, cur := d.Frames[ti-1], d.Frames[ti]
		diff := 0
		for i := 0; i < cur.N; i++ {
			for j := i + 1; j < cur.N; j++ {
				if prev.Occludes(i, j) != cur.Occludes(i, j) {
					diff++
				}
			}
		}
		if diff > 60 { // out of 435 possible pairs
			t.Fatalf("frame %d changed %d edges; occlusion not gradual", ti, diff)
		}
	}
}

func TestInsideAvatarFullArc(t *testing.T) {
	pos := []geom.Vec2{{X: 0, Z: 0}, {X: 0.1, Z: 0}, {X: 5, Z: 5}}
	g := BuildStatic(0, pos, DefaultAvatarRadius)
	if !g.Arcs[1].Full() {
		t.Error("user overlapping the eye should occupy the full circle")
	}
	if !g.Occludes(1, 2) {
		t.Error("full arc should overlap everything")
	}
}

func TestBadInputsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"target": func() { BuildStatic(5, lineScene(), 0.25) },
		"radius": func() { BuildStatic(0, lineScene(), 0) },
		"mask":   func() { BuildStatic(0, lineScene(), 0.25).PhysicalMask(allVR(2)) },
		"visible": func() {
			BuildStatic(0, lineScene(), 0.25).VisibleSet([]bool{true}, allVR(4))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDistancesPositive(t *testing.T) {
	g := BuildStatic(1, lineScene(), DefaultAvatarRadius)
	for w := 0; w < 4; w++ {
		if w == 1 {
			continue
		}
		if g.Dist[w] <= 0 || math.IsNaN(g.Dist[w]) {
			t.Errorf("Dist[%d] = %v", w, g.Dist[w])
		}
	}
}
