package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"after/internal/core"
	"after/internal/crowd"
	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/socialgraph"
)

// ScaleBench is one row of the scaling sweep: mean POSHGNN inference
// latency and heap allocations per step of one target's episode (a width-1
// fused BatchSession) on an N-user room. Edges is the mean occlusion-edge
// count per frame, the E of the O(E·d) message-passing cost.
type ScaleBench struct {
	N          int     `json:"n"`
	Edges      int     `json:"edges"`
	Steps      int     `json:"steps"`
	StepMicros float64 `json:"step_us"`
	Allocs     float64 `json:"allocs_per_step"`
}

// scaleSweepSizes returns the room sizes of the scaling sweep. Quick keeps
// CI smoke runs cheap; the full sweep reaches the 2000-user rooms the sparse
// path exists for.
func scaleSweepSizes(o Options) []int {
	if o.Quick {
		return []int{100, 200}
	}
	return []int{100, 200, 500, 1000, 2000}
}

// scaleSteps is the episode length of each sweep row.
const scaleSteps = 6

// RunScale measures the scaling sweep. Each room is built synthetically at
// constant spatial density (side ∝ √N), so edge counts grow roughly linearly
// with N.
func RunScale(o Options) ([]ScaleBench, error) {
	o = o.withDefaults()
	out := make([]ScaleBench, 0, 5)
	for _, n := range scaleSweepSizes(o) {
		room := scaleRoom(n, scaleSteps, o.Seed+int64(n))
		row := ScaleBench{N: n, Steps: scaleSteps}
		row.StepMicros, row.Allocs, row.Edges = scaleEpisode(room)
		out = append(out, row)
	}
	return out, nil
}

// scaleEpisode times one untrained POSHGNN episode (inference cost does not
// depend on weight values) over a prebuilt DOG of the room, so the row
// isolates the fused forward pass. It returns the best of batchBenchReps
// mean per-step latencies in microseconds, the mean heap allocations per
// step, and the mean edge count per frame.
func scaleEpisode(room *dataset.Room) (stepUs, allocsPerStep float64, meanEdges int) {
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	edges := 0
	for _, frame := range dog.Frames {
		edges += frame.EdgeCount()
	}
	m := core.New(core.Config{UseMIA: true, UseLWP: true, Seed: 1})
	steps := len(dog.Frames)
	var best time.Duration
	var before, after runtime.MemStats
	for rep := 0; rep < batchBenchReps; rep++ {
		sess := m.StartEpisode(room, 0)
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for ti, frame := range dog.Frames {
			sess.Step(ti, frame)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if rep == 0 || wall < best {
			best = wall
		}
	}
	stepUs = float64(best.Nanoseconds()) / 1e3 / float64(steps)
	allocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(steps)
	return stepUs, allocsPerStep, edges / steps
}

// scaleRoom builds a synthetic N-user room at constant spatial density
// (~4 m² per user) with small random per-step motion. It bypasses
// dataset.Generate so sweep rooms are cheap to construct and free of
// platform-graph sampling limits.
func scaleRoom(n, steps int, seed int64) *dataset.Room {
	rng := rand.New(rand.NewSource(seed))
	side := 2 * math.Sqrt(float64(n))
	pos := make([][]geom.Vec2, steps+1)
	base := make([]geom.Vec2, n)
	for i := range base {
		base[i] = geom.Vec2{X: rng.Float64() * side, Z: rng.Float64() * side}
	}
	pos[0] = base
	for t := 1; t <= steps; t++ {
		prev := pos[t-1]
		cur := make([]geom.Vec2, n)
		for i := range cur {
			cur[i] = geom.Vec2{
				X: prev[i].X + (rng.Float64()-0.5)*0.3,
				Z: prev[i].Z + (rng.Float64()-0.5)*0.3,
			}
		}
		pos[t] = cur
	}
	p := make([]float64, n*n)
	s := make([]float64, n*n)
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if v == w {
				continue
			}
			p[v*n+w] = rng.Float64()
			s[v*n+w] = rng.Float64()
		}
	}
	ifaces := make([]occlusion.Interface, n)
	for i := range ifaces {
		if rng.Intn(2) == 0 {
			ifaces[i] = occlusion.MR
		} else {
			ifaces[i] = occlusion.VR
		}
	}
	return &dataset.Room{
		Name:         fmt.Sprintf("scale-%d", n),
		N:            n,
		Graph:        socialgraph.New(n),
		Interfaces:   ifaces,
		Traj:         &crowd.Trajectories{Pos: pos},
		P:            p,
		S:            s,
		AvatarRadius: occlusion.DefaultAvatarRadius,
	}
}

// FormatScale renders the sweep as a table.
func FormatScale(rows []ScaleBench) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %10s %12s\n", "N", "edges", "us/step", "allocs/step")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %8d %10.1f %12.0f\n", r.N, r.Edges, r.StepMicros, r.Allocs)
	}
	return b.String()
}

// ReadBenchReport loads a benchmark report written by WriteJSON.
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("exp: parse %s: %w", path, err)
	}
	return &r, nil
}

// compareSlackMicros is the absolute per-step slack of CompareSteppers: a
// stepper must be both frac slower AND this many microseconds slower to
// count as a regression. Without it, sub-microsecond steppers (Random,
// MvAGC, GraFrank) flap the gate on pure timer noise — 0.1µs → 0.3µs is a
// 200% "regression" that means nothing.
const compareSlackMicros = 5

// CompareSteppers diffs per-step recommender latency between a baseline and
// a fresh report and returns one message per regression beyond frac (0.25 =
// 25% slower) and beyond compareSlackMicros of absolute slowdown. Steppers
// present in only one report are ignored: adding a baseline must not fail
// the comparison.
func CompareSteppers(baseline, latest *BenchReport, frac float64) []string {
	base := make(map[string]float64, len(baseline.Steppers))
	for _, s := range baseline.Steppers {
		base[s.Name] = s.StepMicros
	}
	var regs []string
	for _, s := range latest.Steppers {
		b, ok := base[s.Name]
		if !ok || b <= 0 {
			continue
		}
		if s.StepMicros > b*(1+frac) && s.StepMicros > b+compareSlackMicros {
			regs = append(regs, fmt.Sprintf(
				"%s: %.1fus/step vs baseline %.1fus/step (+%.0f%%, threshold +%.0f%%)",
				s.Name, s.StepMicros, b, (s.StepMicros/b-1)*100, frac*100))
		}
	}
	return regs
}
