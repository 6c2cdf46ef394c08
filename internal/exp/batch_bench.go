package exp

import (
	"fmt"
	"strings"
	"time"

	"after/internal/core"
	"after/internal/occlusion"
)

// BatchBench is one row of the batched-vs-sequential inference sweep: mean
// per-target step latency on an N-user room serving K targets, through three
// routes — K independent width-1 float64 sessions (core.Session, one fused
// BatchSession each: what a solo serve step costs), one fused float64
// BatchSession over all K, and the fused float32 fast path. Speedups are
// sequential ÷ fused, so they read "how much cheaper each target got".
type BatchBench struct {
	N       int `json:"n"`
	Targets int `json:"targets"`
	Steps   int `json:"steps"`
	// SeqStepMicros times the K width-1 sessions. Reports written before
	// inference ran only through BatchSession timed the autodiff Session here.
	SeqStepMicros      float64 `json:"seq_step_us"`
	BatchStepMicros    float64 `json:"batch_step_us"`
	BatchF32StepMicros float64 `json:"batch_f32_step_us"`
	Speedup            float64 `json:"speedup"`
	SpeedupF32         float64 `json:"speedup_f32"`
}

// batchSweepSizes and batchSweepTargets span the batched table: the room
// sizes bracket the paper-scale room (200) and the converter stress size
// (500); the target counts cover solo, a typical serve coalesce, and a
// full-room fan-in.
var (
	batchSweepSizes   = []int{200, 500}
	batchSweepTargets = []int{1, 4, 16}
)

// batchBenchReps repeats each timed route and keeps the fastest wall time.
// The per-cell walls are tens of milliseconds, short enough for a single
// scheduler preemption to distort a one-shot measurement by 30%+ on a busy
// single-vCPU host; the minimum over a few repetitions is the standard
// estimator for the undisturbed latency.
const batchBenchReps = 3

// RunBatchedBench measures the batched sweep. Rooms are the synthetic
// constant-density scaleRoom rooms; each (N, K) cell builds per-target DOGs
// once, so all three routes time pure forward-pass work rather than
// conversion. Every route reports its best of batchBenchReps runs.
func RunBatchedBench(o Options) ([]BatchBench, error) {
	o = o.withDefaults()
	out := make([]BatchBench, 0, len(batchSweepSizes)*len(batchSweepTargets))
	for _, n := range batchSweepSizes {
		room := scaleRoom(n, scaleSteps, o.Seed+int64(n)+7)
		for _, k := range batchSweepTargets {
			targets := make([]int, k)
			dogs := make([]*occlusion.DOG, k)
			for i := range targets {
				targets[i] = i * n / k
				dogs[i] = occlusion.BuildDOG(targets[i], room.Traj, room.AvatarRadius)
			}
			row := BatchBench{N: n, Targets: k, Steps: scaleSteps}

			m := core.New(core.Config{UseMIA: true, UseLWP: true, Seed: 1})
			var seqWall time.Duration
			for rep := 0; rep < batchBenchReps; rep++ {
				start := time.Now()
				for i, target := range targets {
					sess := m.StartEpisode(room, target)
					for t, frame := range dogs[i].Frames {
						sess.Step(t, frame)
					}
				}
				if w := time.Since(start); rep == 0 || w < seqWall {
					seqWall = w
				}
			}

			frames := make([]*occlusion.StaticGraph, k)
			stepBatch := func(opt core.BatchOptions) time.Duration {
				var best time.Duration
				for rep := 0; rep < batchBenchReps; rep++ {
					bs := m.StartBatchSession(room, opt)
					start := time.Now()
					for t := 0; t < len(dogs[0].Frames); t++ {
						for i := range dogs {
							frames[i] = dogs[i].Frames[t]
						}
						bs.StepTargets(t, targets, frames)
					}
					if w := time.Since(start); rep == 0 || w < best {
						best = w
					}
				}
				return best
			}
			batchWall := stepBatch(core.BatchOptions{})
			batch32Wall := stepBatch(core.BatchOptions{Float32: true})

			perTarget := float64(len(dogs[0].Frames) * k)
			row.SeqStepMicros = float64(seqWall.Nanoseconds()) / 1e3 / perTarget
			row.BatchStepMicros = float64(batchWall.Nanoseconds()) / 1e3 / perTarget
			row.BatchF32StepMicros = float64(batch32Wall.Nanoseconds()) / 1e3 / perTarget
			if row.BatchStepMicros > 0 {
				row.Speedup = row.SeqStepMicros / row.BatchStepMicros
			}
			if row.BatchF32StepMicros > 0 {
				row.SpeedupF32 = row.SeqStepMicros / row.BatchF32StepMicros
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatBatched renders the batched sweep as a table.
func FormatBatched(rows []BatchBench) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %12s %13s %13s %8s %8s\n",
		"N", "targets", "seq us/tgt", "batch us/tgt", "f32 us/tgt", "speedup", "f32 spd")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %8d %12.1f %13.1f %13.1f %7.1fx %7.1fx\n",
			r.N, r.Targets, r.SeqStepMicros, r.BatchStepMicros, r.BatchF32StepMicros,
			r.Speedup, r.SpeedupF32)
	}
	return b.String()
}

// CompareBatched diffs the batched sweep between a baseline and a fresh
// report, matching rows by (N, targets), and flags fused per-target latency
// regressions beyond frac and beyond compareSlackMicros — same contract as
// CompareSteppers. Rows present in only one report are ignored so adding the
// table to an old baseline cannot fail the gate.
func CompareBatched(baseline, latest *BenchReport, frac float64) []string {
	type key struct{ n, k int }
	base := make(map[key]BatchBench, len(baseline.Batched))
	for _, r := range baseline.Batched {
		base[key{r.N, r.Targets}] = r
	}
	var regs []string
	for _, r := range latest.Batched {
		b, ok := base[key{r.N, r.Targets}]
		if !ok {
			continue
		}
		check := func(label string, got, want float64) {
			if want > 0 && got > want*(1+frac) && got > want+compareSlackMicros {
				regs = append(regs, fmt.Sprintf(
					"batched N=%d targets=%d %s: %.1fus/target vs baseline %.1fus/target (+%.0f%%, threshold +%.0f%%)",
					r.N, r.Targets, label, got, want, (got/want-1)*100, frac*100))
			}
		}
		check("f64", r.BatchStepMicros, b.BatchStepMicros)
		check("f32", r.BatchF32StepMicros, b.BatchF32StepMicros)
	}
	return regs
}
