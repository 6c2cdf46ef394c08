package occlusion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"after/internal/geom"
	"after/internal/tensor"
)

// buildStaticBrute is the O(N²) all-pairs converter, the executable
// specification of the edge relation: the sweep must reproduce it bit for
// bit. Each row is filled in ascending order straight from Occludes.
func buildStaticBrute(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	g := newStaticGraph(target, positions, radius)
	rowPtr := make([]int32, g.N+1)
	var col []int32
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if g.Occludes(i, j) {
				col = append(col, int32(j))
			}
		}
		rowPtr[i+1] = int32(len(col))
	}
	g.adj = tensor.CSR{Rows: g.N, Cols: g.N, RowPtr: rowPtr, Col: col, Symmetric: true}
	return g
}

// adjacencyMatrix materializes g's neighbor lists as a dense 0/1 matrix,
// the reference the CSR and the edge predicate are checked against.
func adjacencyMatrix(g *StaticGraph) *tensor.Matrix {
	a := tensor.NewMatrix(g.N, g.N)
	for i := 0; i < g.N; i++ {
		for _, j := range g.Neighbors(i) {
			a.Set(i, int(j), 1)
		}
	}
	return a
}

// graphsEqual reports whether two static graphs over the same users have the
// identical adjacency structure, returning a description of the first
// difference.
func graphsEqual(t *testing.T, a, b *StaticGraph) bool {
	t.Helper()
	if a.N != b.N {
		t.Errorf("N mismatch: %d vs %d", a.N, b.N)
		return false
	}
	for w := 0; w < a.N; w++ {
		na, nb := a.Neighbors(w), b.Neighbors(w)
		if len(na) != len(nb) {
			t.Errorf("user %d: %d neighbors (sweep) vs %d (brute)", w, len(na), len(nb))
			return false
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Errorf("user %d neighbor %d: %d (sweep) vs %d (brute)", w, k, na[k], nb[k])
				return false
			}
		}
	}
	return true
}

// TestSweepMatchesBruteProperty is the executable specification of the sweep
// converter: on random rooms of random size, density, and avatar radius, the
// endpoint-sort sweep must produce exactly the edge set of the O(N²)
// brute-force reference — wrap-around arcs (users straddling the ±π seam)
// and near-co-located users included.
func TestSweepMatchesBruteProperty(t *testing.T) {
	check := func(seed int64, users uint8, spreadRaw, radiusRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(users)%128 + 2
		// Spread in (0.5, 8.5] metres, radius in (0.05, 0.55] metres: the
		// small-spread/large-radius corner produces dense rooms full of
		// wide and full arcs, the opposite corner sparse thin arcs.
		spread := 0.5 + 8*clamp01(spreadRaw)
		radius := 0.05 + 0.5*clamp01(radiusRaw)
		positions := make([]geom.Vec2, n)
		for i := range positions {
			positions[i] = geom.Vec2{
				X: (rng.Float64()*2 - 1) * spread,
				Z: (rng.Float64()*2 - 1) * spread,
			}
		}
		// A few exact and near duplicates of existing users: co-located
		// pairs (distance ≈ 0 from each other, possibly from the target).
		for k := 0; k < n/8; k++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			jitter := geom.Vec2{X: rng.NormFloat64() * 1e-9, Z: rng.NormFloat64() * 1e-9}
			positions[dst] = positions[src].Add(jitter)
		}
		target := rng.Intn(n)
		sweep := BuildStatic(target, positions, radius)
		brute := buildStaticBrute(target, positions, radius)
		return graphsEqual(t, sweep, brute)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepMatchesBruteWrapAround pins the wrap-around case explicitly: a
// cluster of users behind the target (bearing ≈ π) whose arcs straddle the
// angle seam, where a naive linear interval sweep loses edges.
func TestSweepMatchesBruteWrapAround(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	positions := []geom.Vec2{{X: 0, Z: 0}} // target at the origin
	for i := 0; i < 40; i++ {
		// Users almost exactly behind the target: bearing π ± small.
		d := 0.5 + rng.Float64()*4
		theta := math.Pi + rng.NormFloat64()*0.05
		positions = append(positions, geom.Vec2{X: d * math.Cos(theta), Z: d * math.Sin(theta)})
	}
	sweep := BuildStatic(0, positions, DefaultAvatarRadius)
	brute := buildStaticBrute(0, positions, DefaultAvatarRadius)
	if !graphsEqual(t, sweep, brute) {
		t.Fatal("wrap-around edge sets differ")
	}
	if sweep.EdgeCount() == 0 {
		t.Fatal("wrap-around scene should have edges")
	}
}

// TestSweepMatchesBruteCoLocated pins the co-located case: several users at
// exactly the target's position (full arcs) plus stacked duplicates away
// from it.
func TestSweepMatchesBruteCoLocated(t *testing.T) {
	positions := []geom.Vec2{
		{X: 0, Z: 0},        // target
		{X: 0, Z: 0},        // exactly on the target: full arc
		{X: 1e-12, Z: 0},    // vanishingly close: full arc
		{X: 2, Z: 0},        // a normal user ...
		{X: 2, Z: 0},        // ... duplicated exactly
		{X: 2, Z: 1e-12},    // ... and near-duplicated
		{X: -3, Z: 0.001},   // far side
		{X: -3, Z: -0.001},  // far side, co-located pair
		{X: 0.1, Z: 0.0001}, // just outside the avatar radius of the eye
	}
	sweep := BuildStatic(0, positions, DefaultAvatarRadius)
	brute := buildStaticBrute(0, positions, DefaultAvatarRadius)
	if !graphsEqual(t, sweep, brute) {
		t.Fatal("co-located edge sets differ")
	}
	// The users on the target have full arcs and must neighbor everyone.
	for _, w := range []int{1, 2} {
		if got := len(sweep.Neighbors(w)); got != len(positions)-2 {
			t.Fatalf("full-arc user %d has %d neighbors, want %d", w, got, len(positions)-2)
		}
	}
}

// TestSweepMatchesBruteNearTangent pins the candidate filter inside the
// sweep's rounding slack: pairs of users whose arcs overlap, touch, or miss
// by less than the few fixed-point units (1.46e-9 rad each) by which a
// candidate interval is widened. Only the exact Overlaps predicate
// separates these pairs, so the sweep must defer to it there: at the end of
// a wide arc's interval, and at its start, where a sub-unit arc can round
// onto the same start and still end before it.
func TestSweepMatchesBruteNearTangent(t *testing.T) {
	for _, sc := range []struct {
		name     string
		radius   float64
		d1, d2   float64 // distances of each pair's first and second user
		after    bool    // the second arc starts gap after the first ends, else ends gap before it starts
		gaps     []float64
		minEdges int
	}{
		{"interval end", DefaultAvatarRadius, 4, 4, true,
			[]float64{-4e-9, -2e-9, -1e-9, -3e-12, 0, 5e-13, 2e-12, 5e-10, 1e-9, 2e-9, 3e-9, 4.5e-9}, 6},
		{"interval start", 1e-9, 0.1, 10, false,
			[]float64{-1e-10, -5e-11, 0, 5e-13, 1e-10, 2e-10, 3e-10, 4e-10, 5e-10, 7e-10, 1e-9}, 4},
	} {
		h1, h2 := math.Asin(sc.radius/sc.d1), math.Asin(sc.radius/sc.d2)
		positions := []geom.Vec2{{}} // target at the origin
		for k, gap := range sc.gaps {
			// One pair per 0.5 rad, the first touching the 0/2π seam.
			c1 := float64(k)*0.5 - h1
			c2 := c1 + h1 + gap + h2
			if !sc.after {
				c2 = c1 - h1 - gap - h2
			}
			positions = append(positions,
				geom.Vec2{X: sc.d1 * math.Cos(c1), Z: sc.d1 * math.Sin(c1)},
				geom.Vec2{X: sc.d2 * math.Cos(c2), Z: sc.d2 * math.Sin(c2)})
		}
		sweep := BuildStatic(0, positions, sc.radius)
		brute := buildStaticBrute(0, positions, sc.radius)
		if !graphsEqual(t, sweep, brute) {
			t.Fatalf("%s: near-tangent edge sets differ", sc.name)
		}
		if e := brute.EdgeCount(); e != sc.minEdges {
			t.Fatalf("%s: %d edges among %d pairs, want the %d with gap ≤ 1e-12", sc.name, e, len(sc.gaps), sc.minEdges)
		}
	}
}

// clamp01 folds testing/quick's arbitrary float64s (including NaN, ±Inf and
// huge magnitudes) into [0, 1) so the scene parameters stay sensible.
func clamp01(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v = math.Abs(v)
	return v - math.Floor(v)
}

// BenchmarkBuildStaticBrute times the all-pairs specification on the
// crowded 500-user frame of the root package's BenchmarkBuildStatic, the
// baseline of the sweep's asymptotic win.
func BenchmarkBuildStaticBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	positions := make([]geom.Vec2, 500)
	for i := range positions {
		positions[i] = geom.Vec2{X: rng.Float64()*16 - 8, Z: rng.Float64()*16 - 8}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildStaticBrute(0, positions, DefaultAvatarRadius)
	}
}
