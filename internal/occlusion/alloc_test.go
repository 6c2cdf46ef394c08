// The race detector makes sync.Pool drop items at random, so the count
// holds only without it.

//go:build !race

package occlusion_test

import (
	"testing"

	"after/internal/dataset"
	"after/internal/occlusion"
)

// TestBuildStaticAllocs pins the converter's allocation contract on the
// paper's N=200 frame (the room BenchmarkOcclusionGraph converts): with its
// working memory pooled, a conversion allocates only what the graph keeps,
// namely the graph itself, Arcs, Dist and the CSR's two arrays.
func TestBuildStaticAllocs(t *testing.T) {
	room, err := dataset.Generate(dataset.Config{Kind: dataset.SMM, RoomUsers: 200, T: 10, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	pos := room.Traj.Pos[0]
	if g := occlusion.BuildStatic(0, pos, room.AvatarRadius); g.EdgeCount() == 0 {
		t.Fatal("paper frame unexpectedly edgeless")
	}
	allocs := testing.AllocsPerRun(100, func() {
		occlusion.BuildStatic(0, pos, room.AvatarRadius)
	})
	if allocs > 5 {
		t.Fatalf("BuildStatic made %v allocations per call on the N=200 frame, want at most 5", allocs)
	}
}
