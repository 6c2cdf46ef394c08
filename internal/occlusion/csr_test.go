package occlusion

import (
	"math/rand"
	"testing"

	"after/internal/geom"
)

// TestAdjacencyCSRMatchesDense pins the CSR pattern against the dense
// adjacency of the neighbor lists on random rooms for both converters (the
// sweep and the all-pairs specification).
func TestAdjacencyCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	builders := map[string]func(int, []geom.Vec2, float64) *StaticGraph{
		"sweep": BuildStatic,
		"brute": buildStaticBrute,
	}
	for name, build := range builders {
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(40)
			pos := make([]geom.Vec2, n)
			for i := range pos {
				pos[i] = geom.Vec2{X: rng.Float64()*8 - 4, Z: rng.Float64()*8 - 4}
			}
			g := build(rng.Intn(n), pos, DefaultAvatarRadius)
			csr := g.AdjacencyCSR()
			if !csr.Symmetric {
				t.Fatalf("%s: adjacency CSR must be symmetric", name)
			}
			dense := adjacencyMatrix(g)
			got := csr.Dense()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got.At(i, j) != dense.At(i, j) {
						t.Fatalf("%s trial %d: CSR[%d,%d]=%v dense=%v",
							name, trial, i, j, got.At(i, j), dense.At(i, j))
					}
				}
			}
			if csr.EdgeCount() != g.EdgeCount() {
				t.Fatalf("%s trial %d: CSR.EdgeCount=%d StaticGraph.EdgeCount=%d",
					name, trial, csr.EdgeCount(), g.EdgeCount())
			}
			// Rows must be sorted ascending (canonical converter order).
			for i := 0; i < n; i++ {
				row := csr.Col[csr.RowPtr[i]:csr.RowPtr[i+1]]
				for k := 1; k < len(row); k++ {
					if row[k-1] >= row[k] {
						t.Fatalf("%s: row %d not strictly ascending: %v", name, i, row)
					}
				}
			}
		}
	}
}

// TestAdjacencyCSRZeroEdges: users spread far apart produce an edgeless
// frame; the CSR must be an all-empty pattern that still multiplies.
func TestAdjacencyCSRZeroEdges(t *testing.T) {
	pos := []geom.Vec2{{}, {X: 10}, {Z: 10}, {X: -10}, {Z: -10}}
	g := BuildStatic(0, pos, DefaultAvatarRadius)
	if g.EdgeCount() != 0 {
		t.Fatalf("scene unexpectedly has %d edges", g.EdgeCount())
	}
	csr := g.AdjacencyCSR()
	if csr.NNZ() != 0 || csr.EdgeCount() != 0 {
		t.Fatalf("zero-edge frame: NNZ=%d EdgeCount=%d", csr.NNZ(), csr.EdgeCount())
	}
	for i, p := range csr.RowPtr {
		if p != 0 {
			t.Fatalf("RowPtr[%d]=%d on edgeless frame", i, p)
		}
	}
}

// TestAdjacencyCSRSingleUserRoom: a room containing only the target has no
// other users at all — N=1, no arcs, no edges.
func TestAdjacencyCSRSingleUserRoom(t *testing.T) {
	g := BuildStatic(0, []geom.Vec2{{X: 1, Z: 2}}, DefaultAvatarRadius)
	csr := g.AdjacencyCSR()
	if csr.Rows != 1 || csr.Cols != 1 || csr.NNZ() != 0 || csr.EdgeCount() != 0 {
		t.Fatalf("single-user CSR: %dx%d nnz=%d", csr.Rows, csr.Cols, csr.NNZ())
	}
}

// TestAdjacencyCSRTargetRowExcluded: the target is an isolated node, so its
// CSR row must be empty and no other row may reference it — even in a
// fully-occluded scene where everyone else forms a clique.
func TestAdjacencyCSRTargetRowExcluded(t *testing.T) {
	// Everyone stacked within the avatar radius of the target: full arcs,
	// complete graph over the non-target users.
	pos := []geom.Vec2{{}, {X: 0.05}, {X: -0.05}, {Z: 0.05}, {Z: -0.05}, {X: 0.03, Z: 0.03}}
	n := len(pos)
	target := 0
	g := BuildStatic(target, pos, DefaultAvatarRadius)
	csr := g.AdjacencyCSR()
	if got := csr.RowPtr[target+1] - csr.RowPtr[target]; got != 0 {
		t.Fatalf("target row has %d entries", got)
	}
	for _, j := range csr.Col {
		if int(j) == target {
			t.Fatal("target referenced as a neighbor")
		}
	}
	// Fully occluded: every non-target pair is an edge.
	wantEdges := (n - 1) * (n - 2) / 2
	if csr.EdgeCount() != wantEdges {
		t.Fatalf("clique scene: EdgeCount=%d want %d", csr.EdgeCount(), wantEdges)
	}
}

// TestAdjacencyCSRZeroCopy pins the one-adjacency-form contract: every
// neighbor list is a view of the CSR's column array, not a copy, and
// AdjacencyCSR returns the same CSR on every call.
func TestAdjacencyCSRZeroCopy(t *testing.T) {
	pos := []geom.Vec2{{}, {X: 2}, {X: 4}, {Z: 3}, {X: 3, Z: 0.1}}
	g := BuildStatic(0, pos, DefaultAvatarRadius)
	csr := g.AdjacencyCSR()
	if csr.NNZ() == 0 {
		t.Fatal("scene unexpectedly edgeless")
	}
	for w := 0; w < g.N; w++ {
		ns := g.Neighbors(w)
		lo, hi := csr.RowPtr[w], csr.RowPtr[w+1]
		if len(ns) != int(hi-lo) {
			t.Fatalf("user %d: %d neighbors, CSR row holds %d", w, len(ns), hi-lo)
		}
		if len(ns) > 0 && &ns[0] != &csr.Col[lo] {
			t.Errorf("user %d: neighbor list is a copy, not a view of the CSR columns", w)
		}
		if cap(ns) != len(ns) {
			t.Errorf("user %d: neighbor list has capacity %d past its row; an append would overwrite the next row", w, cap(ns))
		}
	}
	if csr != g.AdjacencyCSR() {
		t.Error("AdjacencyCSR returned a different CSR on a second call")
	}
}
