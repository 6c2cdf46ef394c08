package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"after/internal/baselines"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/exp"
	"after/internal/metrics"
	"after/internal/obs/quality"
	"after/internal/occlusion"
	"after/internal/sim"
)

// paperSpec shapes the offline workload: Table-II-scale Timik rooms, one
// training epoch on trainTargets episodes of the training room per op, then
// an evaluation of POSHGNN and Nearest over evalTargets held-out targets.
type paperSpec struct {
	setupReps int
	// room is the generator configuration of both rooms apart from the
	// seed; its zero fields take the paper's Timik setup (N=200, T=100).
	room                      dataset.Config
	trainTargets, evalTargets int
	// staticEvery: the traced run replays BuildStatic on every staticEvery-th
	// frame of each evaluation target.
	staticEvery int
}

var paperModel = core.Config{UseMIA: true, UseLWP: true, Epochs: 1, Seed: 1}

// paperOp is one train+evaluate op.
type paperOp struct {
	iv, train, eval interval
	cpu             time.Duration
	trainSteps      int // BPTT target-steps trained
	// attempted is how many rendered sets the evaluation was to produce
	// (recommenders × targets × steps); produced is how many it returned,
	// none when the op failed.
	attempted, produced int
	err                 error
	util                map[string]float64
}

type paperRun struct {
	sp                  paperSpec
	trainRoom, evalRoom *dataset.Room
	model               *core.POSHGNN
	eps                 []core.Episode
	targets             []int
	steps               *stepLog     // POSHGNN's fused steps
	nearestSets         atomic.Int64 // rendered sets Nearest's steppers returned
	ops                 []paperOp
	window              interval
	rss                 float64
	rt                  runtimeDelta
	setups, roomS       []float64
}

// setup generates both rooms and a fresh model, and warms the evaluation
// path up on one Nearest episode of a remote (VR) target, whose quality
// oracle is cheap and alike across seeds.
func (run *paperRun) setup(seed int64) error {
	gen := func(s int64) (*dataset.Room, error) {
		cfg := run.sp.room
		cfg.Seed = s
		t := time.Now()
		room, err := dataset.Generate(cfg)
		run.roomS = append(run.roomS, time.Since(t).Seconds())
		return room, err
	}
	var err error
	if run.trainRoom, err = gen(1000 + 2*seed); err != nil {
		return err
	}
	if run.evalRoom, err = gen(1001 + 2*seed); err != nil {
		return err
	}
	run.model = core.New(paperModel)
	run.eps = run.eps[:0]
	for _, t := range sim.DefaultTargets(run.trainRoom, run.sp.trainTargets) {
		run.eps = append(run.eps, core.Episode{Room: run.trainRoom, Target: t})
	}
	run.targets = mixedTargets(run.evalRoom, run.sp.evalTargets)
	warm := run.targets[0]
	for _, t := range run.targets {
		if run.evalRoom.Interfaces[t] == occlusion.VR {
			warm = t
			break
		}
	}
	_, err = sim.Evaluate([]sim.Recommender{baselines.Nearest{}}, run.evalRoom, []int{warm}, exp.Beta)
	return err
}

// sets is how many rendered sets both recommenders' steppers have returned.
func (run *paperRun) sets() int { return int(run.steps.sets.Load() + run.nearestSets.Load()) }

// op trains one epoch and evaluates both recommenders. A failed op is
// recorded with its error and produced no rendered set.
func (run *paperRun) op() paperOp {
	recs := []sim.Recommender{nil, countedRec{Recommender: baselines.Nearest{}, sets: &run.nearestSets}}
	op := paperOp{attempted: len(recs) * len(run.targets) * run.evalRoom.Traj.Steps()}
	cpu0 := cpuNow()
	sets0 := run.sets()
	start := time.Now()
	_, err := run.model.Train(run.eps)
	mid := time.Now()
	var res map[string]metrics.Result
	if err != nil {
		err = fmt.Errorf("train: %w", err)
	} else if recs[0], err = wrapPrimary(exp.POSHGNNRec(run.model, "POSHGNN"), run.steps); err == nil {
		if res, err = sim.Evaluate(recs, run.evalRoom, run.targets, exp.Beta); err != nil {
			err = fmt.Errorf("evaluate: %w", err)
		}
	}
	end := time.Now()
	op.cpu = cpuNow() - cpu0
	op.iv = interval{nanos(start), nanos(end)}
	op.train, op.eval = interval{nanos(start), nanos(mid)}, interval{nanos(mid), nanos(end)}
	if op.err = err; err != nil {
		return op
	}
	op.produced = run.sets() - sets0
	for _, ep := range run.eps {
		op.trainSteps += ep.Room.Traj.Steps()
	}
	op.util = map[string]float64{}
	for name, r := range res {
		op.util[name] = r.Utility
	}
	return op
}

func runPaper(sp paperSpec, seed int64, seconds float64) (*paperRun, error) {
	run := &paperRun{sp: sp, steps: &stepLog{}}
	for rep := 0; rep < sp.setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = epoch
		}
		if err := run.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
		run.setups = append(run.setups, time.Since(start).Seconds())
	}
	rt0 := readRuntime()
	start := time.Now()
	until := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(run.ops) == 0 || time.Now().Before(until) {
		run.ops = append(run.ops, run.op())
	}
	end := time.Now()
	_, run.rss = usage()
	run.rt = diffRuntime(rt0, readRuntime(), int64(len(run.ops)))
	run.window = interval{nanos(start), nanos(end)}
	return run, nil
}

// windowSteps returns the durations of the fused steps inside the window.
func (run *paperRun) windowSteps() (ms []float64, ns int64, targets int) {
	for _, c := range run.steps.snapshot() {
		if c.iv.start >= run.window.start && c.iv.end <= run.window.end {
			ms = append(ms, float64(c.iv.dur())/1e6)
			ns += c.iv.dur()
			targets += len(c.targets)
		}
	}
	return ms, ns, targets
}

// endToEnd computes the user-visible metrics of a paper run. Every metric
// but the fresh share and memory is computed per op and reported as the
// median across ops. A recommendation is one fused POSHGNN step over all
// evaluation targets, so an op's 101 steps give its p50 and its tail (p90:
// the highest quantile with minBeyond steps beyond it). Every rendered set
// a failed op did not return counts as a failure, and a failed op's time
// as infinite.
func (run *paperRun) endToEnd() (map[string]float64, tally, map[string]any) {
	var t tally
	var ticks, rates, cpu, p50s, tails, tailQs []float64
	var errs []string
	calls := run.steps.snapshot()
	for _, op := range run.ops {
		t.attempted += int64(op.attempted)
		t.failed += int64(op.attempted - op.produced)
		secs := float64(op.iv.dur()) / 1e9
		tick := math.Inf(1)
		if op.err == nil {
			tick = secs * 1e3
		} else if len(errs) < 5 {
			errs = append(errs, op.err.Error())
		}
		ticks = append(ticks, tick)
		rates = append(rates, float64(op.produced)/secs)
		cpu = append(cpu, float64(op.cpu)/1e6)
		var steps []float64
		for _, c := range calls {
			if c.iv.start >= op.eval.start && c.iv.end <= op.eval.end {
				steps = append(steps, float64(c.iv.dur())/1e6)
			}
		}
		sort.Float64s(steps)
		v, q := tail(steps, 0.99)
		p50s, tails, tailQs = append(p50s, quantile(steps, 0.5)), append(tails, v), append(tailQs, q)
	}
	stepMs, _, _ := run.windowSteps()
	m := map[string]float64{
		"setup_s":       median(run.setups),
		"recs_per_s":    median(rates),
		"rec_p50_ms":    median(p50s),
		"rec_p99_ms":    median(tails),
		"tick_p50_ms":   median(ticks),
		"fresh_share":   t.okShare(),
		"cpu_ms_per_op": median(cpu),
		"peak_rss_mb":   run.rss,
	}
	samples := map[string]any{
		"ops":               len(run.ops),
		"failed_sets":       t.failed,
		"op_errors":         errs,
		"fused_steps":       len(stepMs),
		"rec_tail_quantile": median(tailQs),
		"rec_quantiles_ms":  profile(sortedCopy(stepMs)),
		"window_s":          float64(run.window.dur()) / 1e9,
		"op_recs_per_s":     rates,
		"op_rec_tail_ms":    tails,
		"op_cpu_ms":         cpu,
		"setup_reps_s":      run.setups,
		"setup_first_s":     run.setups[0],
	}
	return m, t, samples
}

func (run *paperRun) inputProps(seed int64) map[string]any {
	edges, graphs := 0, 0
	for _, target := range run.targets {
		dog := occlusion.BuildDOG(target, run.evalRoom.Traj, run.evalRoom.AvatarRadius)
		for _, f := range dog.Frames {
			edges += f.EdgeCount()
			graphs++
		}
	}
	return map[string]any{
		"seed":                    seed,
		"users":                   run.evalRoom.N,
		"steps_per_episode":       run.evalRoom.Traj.Steps(),
		"train_targets":           len(run.eps),
		"eval_targets":            len(run.targets),
		"eval_targets_mr":         mrCount(run.evalRoom, run.targets),
		"recommenders":            []string{"POSHGNN", "Nearest"},
		"occlusion_moved_share":   trajMovedShare(run.evalRoom),
		"occlusion_edges_per_tgt": float64(edges) / float64(max(graphs, 1)),
		"ops_attempted":           len(run.ops),
	}
}

// mixedTargets picks k evaluation targets, half co-located (MR) and half
// remote (VR), each half spread evenly over the users of its interface. The
// quality oracle costs far more for an MR target, whose view holds every
// other MR participant, so a fixed mix keeps an op's work alike across
// seeds.
func mixedTargets(room *dataset.Room, k int) []int {
	var byIface [2][]int
	for u, in := range room.Interfaces {
		if in == occlusion.MR {
			byIface[0] = append(byIface[0], u)
		} else {
			byIface[1] = append(byIface[1], u)
		}
	}
	targets := make([]int, 0, k)
	for i := 0; i < k; i++ {
		group := byIface[i%2]
		targets = append(targets, group[(i/2)*len(group)/((k+1)/2)])
	}
	sort.Ints(targets)
	return targets
}

func mrCount(room *dataset.Room, users []int) int {
	n := 0
	for _, u := range users {
		if room.Interfaces[u] == occlusion.MR {
			n++
		}
	}
	return n
}

// trajMovedShare is the mean share of users whose position changes between
// two consecutive trajectory frames.
func trajMovedShare(room *dataset.Room) float64 {
	moved, total := 0, 0
	for t := 1; t < len(room.Traj.Pos); t++ {
		for i := range room.Traj.Pos[t] {
			if room.Traj.Pos[t][i] != room.Traj.Pos[t-1][i] {
				moved++
			}
			total++
		}
	}
	return float64(moved) / float64(max(total, 1))
}

// utilityCheck re-evaluates the first and the last op's model through a
// sim.Func wrapper, which hides the batch path so every target steps its own
// sequential session, and requires the POSHGNN utility each op reported.
// The last op's model is the live one; the first op's is rebuilt from the
// same seed with one training epoch.
func (run *paperRun) utilityCheck() error {
	prevQ := quality.SetEnabled(false) // observation only; skip its cost
	defer quality.SetEnabled(prevQ)
	eval := func(m *core.POSHGNN) (float64, error) {
		rec := exp.POSHGNNRec(m, "POSHGNN")
		seq := sim.Func{RecName: "POSHGNN", Start: rec.StartEpisode}
		res, err := sim.Evaluate([]sim.Recommender{seq}, run.evalRoom, run.targets, exp.Beta)
		if err != nil {
			return 0, err
		}
		return res["POSHGNN"].Utility, nil
	}
	first := core.New(paperModel)
	if _, err := first.Train(run.eps); err != nil {
		return err
	}
	checks := []struct {
		name string
		m    *core.POSHGNN
		op   paperOp
	}{
		{"first", first, run.ops[0]},
		{"last", run.model, run.ops[len(run.ops)-1]},
	}
	for _, c := range checks {
		if c.op.err != nil {
			return fmt.Errorf("%s op failed: %v", c.name, c.op.err)
		}
		got, err := eval(c.m)
		if err != nil {
			return err
		}
		if want := c.op.util["POSHGNN"]; got != want {
			return fmt.Errorf("%s op: fused evaluation utility %v, per-target stepper %v", c.name, want, got)
		}
	}
	return nil
}

// traceLayers replays the evaluation's layers after the window and returns
// the per-layer metrics. It also files the ops' spans.
func (run *paperRun) traceLayers(spans *spanLog) (map[string]float64, error) {
	stepMs, stepNs, stepTargets := run.windowSteps()
	calls := run.steps.snapshot()
	ci := 0
	var trainS []float64
	var trainNs, evalNs int64
	trainSteps, evalSets := 0, 0
	for i, op := range run.ops {
		root := spans.add("paper.op", op.iv, -1, int64(i))
		spans.add("core.train", op.train, root, int64(i))
		ev := spans.add("sim.evaluate", op.eval, root, int64(i))
		for ; ci < len(calls) && calls[ci].iv.start < op.eval.end; ci++ {
			if calls[ci].iv.start >= op.eval.start {
				spans.add("core.step", calls[ci].iv, ev, int64(i))
			}
		}
		trainS = append(trainS, float64(op.train.dur())/1e9)
		trainNs += op.train.dur()
		evalNs += op.eval.dur()
		trainSteps += op.trainSteps
		evalSets += op.produced
	}

	room := run.evalRoom
	var dogMs, staticUs, scoreUs, recordMs, episodeMs []float64
	dogs := make([]*occlusion.DOG, len(run.targets))
	for i, target := range run.targets {
		t := time.Now()
		dogs[i] = occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
		dogMs = append(dogMs, float64(time.Since(t))/1e6)
		for f := 0; f < len(room.Traj.Pos); f += run.sp.staticEvery {
			t := time.Now()
			occlusion.BuildStatic(target, room.Traj.Pos[f], room.AvatarRadius)
			staticUs = append(staticUs, float64(time.Since(t))/1e3)
		}
	}
	edges, graphs := 0, 0
	var mflop []float64
	for f := range dogs[0].Frames {
		flop := 0.0
		for _, d := range dogs {
			e := d.Frames[f].EdgeCount()
			edges += e
			graphs++
			flop += spmmFlops(e)
		}
		mflop = append(mflop, flop/1e6)
	}

	posh := exp.POSHGNNRec(run.model, "POSHGNN")
	br, ok := posh.(sim.BatchRecommender)
	if !ok {
		return nil, fmt.Errorf("POSHGNN recommender cannot batch")
	}
	t := time.Now()
	if _, err := sim.RunBatchedEpisodes(br, room, dogs, exp.Beta); err != nil {
		return nil, fmt.Errorf("replay fused episodes: %w", err)
	}
	fusedMs := float64(time.Since(t)) / 1e6
	for _, dog := range dogs {
		t := time.Now()
		if _, err := sim.RunEpisode(baselines.Nearest{}, room, dog, exp.Beta); err != nil {
			return nil, fmt.Errorf("replay episode: %w", err)
		}
		episodeMs = append(episodeMs, float64(time.Since(t))/1e6)
	}
	collector := quality.NewCollector(quality.DefaultConfig())
	for _, rec := range []sim.Recommender{posh, baselines.Nearest{}} {
		for _, dog := range dogs {
			st := rec.StartEpisode(room, dog.Target)
			rendered := make([][]bool, len(dog.Frames))
			for f, frame := range dog.Frames {
				rendered[f] = st.Step(f, frame)
			}
			t := time.Now()
			if _, err := metrics.Score(room, dog, rendered, exp.Beta); err != nil {
				return nil, fmt.Errorf("replay score: %w", err)
			}
			scoreUs = append(scoreUs, float64(time.Since(t))/1e3)
			t = time.Now()
			collector.RecordEpisode(rec.Name(), room, dog, rendered, exp.Beta)
			recordMs = append(recordMs, float64(time.Since(t))/1e6)
		}
	}
	return map[string]float64{
		"occlusion.static_us":        median(staticUs),
		"occlusion.edges":            float64(edges) / float64(max(graphs, 1)),
		"occlusion.moved_share":      trajMovedShare(room),
		"occlusion.dog_ms":           median(dogMs),
		"core.step_ms":               median(stepMs),
		"core.step_us_per_target":    float64(stepNs) / 1e3 / float64(max(stepTargets, 1)),
		"core.train_epoch_s":         median(trainS),
		"core.train_steps_per_s":     float64(trainSteps) / (float64(trainNs) / 1e9),
		"tensor.spmm_mflop_per_step": mean(mflop),
		"sim.fused_ms":               fusedMs,
		"sim.episode_ms":             mean(episodeMs),
		"sim.eval_steps_per_s":       float64(evalSets) / (float64(evalNs) / 1e9),
		"metrics.score_us":           median(scoreUs),
		"quality.record_ms":          mean(recordMs),
		"dataset.room_s":             median(run.roomS),
		"runtime.allocs_per_op":      run.rt.AllocsPerOp,
		"runtime.alloc_kb_per_op":    run.rt.AllocKBPerOp,
		"runtime.gc_per_kop":         run.rt.GCPerKop,
		"runtime.gc_pause_p99_ms":    run.rt.GCPauseP99Ms,
	}, nil
}
