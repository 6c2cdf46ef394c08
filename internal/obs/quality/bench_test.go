package quality_test

import (
	"testing"

	"after/internal/baselines"
	"after/internal/dataset"
	"after/internal/exp"
	"after/internal/obs/quality"
	"after/internal/occlusion"
	"after/internal/sim"
)

// BenchmarkRecordEpisode measures recording one Nearest episode on the
// paper's N=200 Timik room, for the first co-located (MR) and the first
// remote (VR) target. The oracle runs greedy + local search on every frame;
// an MR target's physical mask zeroes most of its weights, so the VR
// episode is the costly one. The package is external because sim and
// baselines import quality.
func BenchmarkRecordEpisode(b *testing.B) {
	room, err := dataset.Generate(dataset.Config{Kind: dataset.Timik, Seed: 901})
	if err != nil {
		b.Fatal(err)
	}
	for _, iface := range []occlusion.Interface{occlusion.MR, occlusion.VR} {
		target := -1
		for u, in := range room.Interfaces {
			if in == iface {
				target = u
				break
			}
		}
		dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
		_, trace, err := sim.RunEpisodeTrace(baselines.Nearest{}, room, dog, exp.Beta)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(iface.String(), func(b *testing.B) {
			c := quality.NewCollector(quality.DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.RecordEpisode("Nearest", room, dog, trace, exp.Beta)
			}
		})
	}
}
