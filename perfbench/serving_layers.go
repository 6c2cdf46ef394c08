package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"after/internal/core"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/resilience"
)

// ledgerTolerance is how far a request's layers may sum away from its
// measured time: the share of the request time, or ledgerFloorNs, whichever
// is larger.
const (
	ledgerTolerance = 0.05
	ledgerFloorNs   = 20_000
	// ledgerMinShare of the traced requests must sum within the tolerance.
	ledgerMinShare = 0.99
	// ledgerMinAccounted is the least share of the median sampled batch's
	// observed conversion phase its replayed conversion must account for.
	ledgerMinAccounted = 0.1
	// replayPasses is how many times each sampled batch's conversion is
	// replayed; each target's fastest pass counts.
	replayPasses = 3
	// replayChunk batches replay between two collections.
	replayChunk = 16
)

// traceLayers replays conversion and sanitizing for a sample of frames, puts
// every sampled request's layers on one time line, and returns the per-layer
// metrics with the ledger check's outcome.
func (run *servingRun) traceLayers(spans *spanLog) (map[string]float64, map[string]any, error) {
	rig, sp := run.rig, run.sp
	calls := rig.steps.snapshot()
	type key struct{ room, t, target int }
	byTarget := map[key]int{}
	stepMs := []float64{}
	stepNs, stepTargets := int64(0), 0
	for i, c := range calls {
		if c.stepper >= len(rig.ins) {
			// A room rebuilt its fused session, which only a failed
			// fused pass does.
			return nil, nil, fmt.Errorf("fused session %d started after the rooms' first frames", c.stepper)
		}
		for _, tg := range c.targets {
			byTarget[key{c.stepper, c.t, tg}] = i
		}
		if c.iv.start >= run.marks[0].at && c.iv.end <= run.marks[len(run.marks)-1].at {
			stepMs = append(stepMs, float64(c.iv.dur())/1e6)
			stepNs += c.iv.dur()
			stepTargets += len(c.targets)
		}
	}

	// Replays: sanitize each sampled frame, and convert each of its fused
	// batches the way the server does, fanned out over the worker pool.
	// Every batch is converted once per pass and keeps its fastest pass; the
	// passes run one after another over all batches, so one stall (a GC
	// cycle, a profiler window fold) cannot slow every copy of a batch.
	sampled := func(k int) bool { return k >= sp.warmFrames && (k-sp.warmFrames)%sp.traceEvery == 0 }
	type batchReplay struct {
		call int
		pos  []geom.Vec2
	}
	var batches []batchReplay
	var staticUs, sanitizeUs, mflop []float64
	for r, in := range rig.ins {
		san := resilience.NewSanitizer(sp.users)
		for k := sp.warmFrames; k < run.next[r]; k++ {
			if !sampled(k) {
				continue
			}
			pos := in.positions(k)
			t0 := time.Now()
			san.Sanitize(pos)
			sanitizeUs = append(sanitizeUs, float64(time.Since(t0))/1e3)
			seen := map[int]bool{}
			for _, target := range targetsAt(sp, in, k) {
				if ci, ok := byTarget[key{r, k, target}]; ok && !seen[ci] {
					seen[ci] = true
					batches = append(batches, batchReplay{ci, pos})
				}
			}
		}
	}
	// The server converts a batch's targets with parallel.ForEach. The
	// replay times each target's conversion alone, keeps its fastest of
	// replayPasses passes (the passes run one after another over all
	// batches, so one stall cannot slow every copy), and schedules those
	// times on the pool's workers in claim order: the batch's conversion
	// wall time without scheduler, collector or host interference. The
	// collector is held off while a chunk of batches replays and runs
	// between chunks.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bestNs := map[int][]int64{} // step call → fastest conversion per target
	edges, graphs := 0, 0
	for pass := 0; pass < replayPasses; pass++ {
		for i, b := range batches {
			if i%replayChunk == 0 {
				runtime.GC()
			}
			targets := calls[b.call].targets
			best := bestNs[b.call]
			if best == nil {
				best = make([]int64, len(targets))
				for j := range best {
					best[j] = math.MaxInt64
				}
				bestNs[b.call] = best
			}
			flop := 0.0
			for j, target := range targets {
				t0 := time.Now()
				g := occlusion.BuildStatic(target, b.pos, occlusion.DefaultAvatarRadius)
				d := int64(time.Since(t0))
				best[j] = min(best[j], d)
				staticUs = append(staticUs, float64(d)/1e3)
				if pass == 0 {
					e := g.EdgeCount()
					edges += e
					graphs++
					flop += spmmFlops(e)
				}
			}
			if pass == 0 {
				mflop = append(mflop, flop/1e6)
			}
		}
	}
	convNs := make(map[int]int64, len(bestNs))
	for call, best := range bestNs {
		convNs[call] = makespan(best, parallel.Limit())
	}

	// Ledger: each sampled request cut into the parts a fused batch's member
	// passes through: admission (HTTP decode, middleware, admission),
	// queue wait, the conversion phase (batch start to core step), the core
	// step, and the response. The batch worker stamps one instant for every
	// member: its queue wait ends there (QueueMs counts from the member's
	// admission) and the batch's conversion starts there. The client knows
	// each member's issue time and QueueMs, so issue + QueueMs is at most
	// that instant; the latest such sum over the batch stands for it, which
	// books the fastest member's own admission time to the conversion phase.
	batchStart := map[int]int64{}
	for _, rc := range rig.reqs {
		if ci, ok := byTarget[key{rc.room, rc.k, rc.target}]; ok && rc.fresh && rc.fused {
			at := rc.iv.start + int64(rc.queueMs*1e6)
			if at > batchStart[ci] {
				batchStart[ci] = at
			}
		}
	}
	var selfUs, admitUs, respondUs, waitUs, phaseUs, replayUs, accounted []float64
	within, ledgered := 0, 0
	var worst float64
	var worstAt map[string][2]float64 // the worst request's parts, µs from its start
	queueMs, batch := []float64{}, 0.0
	fused := 0
	seenBatch := map[int]bool{}
	for i, rc := range rig.reqs {
		queueMs = append(queueMs, rc.queueMs)
		batch += float64(rc.batch)
		if rc.fused {
			fused++
		}
		reqSpan := spans.add("client.request", rc.iv, -1, int64(i))
		ci, ok := byTarget[key{rc.room, rc.k, rc.target}]
		conv, sampledBatch := convNs[ci]
		if !ok || !sampledBatch || !rc.fresh || !rc.fused {
			continue
		}
		s, bs := calls[ci].iv, batchStart[ci]
		qNs := int64(rc.queueMs * 1e6)
		parts := []struct {
			name string
			iv   interval
		}{
			{"serve.admit", interval{rc.iv.start, bs - qNs}},
			{"serve.queue", interval{bs - qNs, bs}},
			{"serve.convert", interval{bs, s.start}},
			{"core.step", s},
			{"serve.respond", interval{s.end, rc.iv.end}},
		}
		// Each part counts its own length, a negative one as zero, so parts
		// out of order (a step outside its request, a batch start after its
		// step) sum to more than the request.
		var sum int64
		for _, p := range parts {
			sum += max(p.iv.dur(), 0)
			if p.iv.dur() > 0 {
				spans.add(p.name, p.iv, reqSpan, int64(i))
			}
		}
		phase := parts[2].iv
		replay := interval{phase.start, phase.start + conv}
		spans.add("occlusion.convert(replay)", replay, reqSpan, int64(i))
		// The replayed conversion must fit in the observed conversion phase;
		// what it leaves over is time the real conversion spent waiting for
		// a CPU, for the collector, or in the worker's dispatch.
		gap := math.Abs(float64(sum - rc.iv.dur()))
		if over := conv - phase.dur(); over > 0 {
			gap = max(gap, float64(over))
		}
		ledgered++
		if gap <= math.Max(ledgerTolerance*float64(rc.iv.dur()), ledgerFloorNs) {
			within++
		}
		if g := gap / float64(rc.iv.dur()); g > worst || worstAt == nil {
			worst = g
			rel := func(iv interval) [2]float64 {
				return [2]float64{float64(iv.start-rc.iv.start) / 1e3, float64(iv.end-rc.iv.start) / 1e3}
			}
			worstAt = map[string][2]float64{"request": rel(rc.iv), "convert(replay)": rel(replay)}
			for _, p := range parts {
				worstAt[p.name] = rel(p.iv)
			}
		}
		if !seenBatch[ci] {
			seenBatch[ci] = true
			phaseUs = append(phaseUs, float64(phase.dur())/1e3)
			replayUs = append(replayUs, float64(conv)/1e3)
			accounted = append(accounted, float64(conv)/float64(max(phase.dur(), 1)))
		}
		admitUs = append(admitUs, float64(parts[0].iv.dur())/1e3)
		respondUs = append(respondUs, float64(parts[4].iv.dur())/1e3)
		waitUs = append(waitUs, float64(phase.dur()-conv)/1e3)
		// Self time: what queue, conversion phase and step leave of the
		// request, which is admission plus response when they are in order.
		selfUs = append(selfUs, float64(selfTime(rc.iv, []interval{parts[1].iv, phase, s}))/1e3)
	}
	frameUs := []float64{}
	for _, f := range rig.frames {
		spans.add("serve.frame", f.post, -1, -1)
		frameUs = append(frameUs, float64(f.post.dur())/1e3)
	}
	n := float64(max(len(rig.reqs), 1))
	m := map[string]float64{
		"serve.frame_us":             median(frameUs),
		"serve.queue_ms":             median(queueMs),
		"serve.batch_size":           batch / n,
		"serve.fused_share":          float64(fused) / n,
		"serve.self_us":              median(selfUs),
		"serve.convert_wait_us":      median(waitUs),
		"resilience.sanitize_us":     median(sanitizeUs),
		"occlusion.static_us":        median(staticUs),
		"occlusion.edges":            float64(edges) / float64(max(graphs, 1)),
		"core.step_ms":               median(stepMs),
		"core.step_us_per_target":    float64(stepNs) / 1e3 / float64(max(stepTargets, 1)),
		"tensor.spmm_mflop_per_step": mean(mflop),
		"dataset.room_s":             median(run.roomS),
		"exp.train_s":                median(run.trainS),
		"runtime.allocs_per_op":      run.rt.AllocsPerOp,
		"runtime.alloc_kb_per_op":    run.rt.AllocKBPerOp,
		"runtime.gc_per_kop":         run.rt.GCPerKop,
		"runtime.gc_pause_p99_ms":    run.rt.GCPauseP99Ms,
		"occlusion.moved_share":      run.movedShare(),
	}
	ledger := map[string]any{
		"samples": map[string]int{
			"serve.self_us":          len(selfUs),
			"batches":                len(phaseUs),
			"core.step_ms":           len(stepMs),
			"occlusion.static_us":    len(staticUs),
			"resilience.sanitize_us": len(sanitizeUs),
		},
		"requests":        ledgered,
		"within_share":    float64(within) / float64(max(ledgered, 1)),
		"tolerance_share": ledgerTolerance,
		"tolerance_floor": fmt.Sprintf("%dus", ledgerFloorNs/1000),
		"min_share":       ledgerMinShare,
		"worst_gap_share": worst,
		"worst_spans_us":  worstAt,
		"admit_us_p50":    median(admitUs),
		"respond_us_p50":  median(respondUs),
		"convert_phase_us": map[string]float64{
			"observed_p50": median(phaseUs),
			"replay_p50":   median(replayUs),
			"wait_p50":     median(waitUs),
		},
		"min_accounted":       ledgerMinAccounted,
		"accounted_quantiles": profile(sortedCopy(accounted)),
	}
	var err error
	switch accountedP50 := median(accounted); {
	case ledgered == 0:
		err = fmt.Errorf("ledger: no traced request could be matched to a fused step")
	case float64(within) < ledgerMinShare*float64(ledgered):
		err = fmt.Errorf("ledger: only %d of %d requests sum to their measured time within %.0f%%", within, ledgered, 100*ledgerTolerance)
	case accountedP50 < ledgerMinAccounted:
		err = fmt.Errorf("ledger: the replayed conversion accounts for %.1f%% of the median batch's observed conversion phase, less than %.0f%%", 100*accountedP50, 100*ledgerMinAccounted)
	}
	return m, ledger, err
}

// makespan is the wall time of running jobs (in order) on the given number
// of workers, each worker taking the next job as soon as it is free.
func makespan(jobs []int64, workers int) int64 {
	free := make([]int64, max(min(workers, len(jobs)), 1))
	for _, d := range jobs {
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += d
	}
	end := int64(0)
	for _, f := range free {
		end = max(end, f)
	}
	return end
}

// spmmFlops is the sparse-aggregation work of one target's forward pass on a
// graph with e undirected occlusion edges: every graph convolution gathers
// over 2e stored entries at its input width, two flops per entry and
// column. The widths are the model's: PDR convolves the 4 MIA features and
// then the hidden state; LWP convolves features ‖ 3 deltas ‖ hidden ‖ r_{t-1},
// then the hidden state twice.
func spmmFlops(e int) float64 {
	const featureDim, deltaDim = 4, 3
	hid := core.DefaultConfig().Hidden
	widths := featureDim + hid + (featureDim + deltaDim + hid + 1) + hid + hid
	return 2 * float64(2*e) * float64(widths)
}
