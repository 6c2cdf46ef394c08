// Package sim is the experiment harness: it runs any AFTER recommender over
// a generated room, times every per-step decision, and scores the resulting
// rendering trace with the paper's metrics. All of Tables II–VII reduce to
// calls into this package.
package sim

import (
	"errors"
	"fmt"
	"time"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/occlusion"
	"after/internal/parallel"
)

// obsEpisodes counts completed episodes across the harness (obs-gated).
var obsEpisodes = obs.Default().Counter("sim.episodes")

// ErrEmptyEpisode is returned (wrapped) when an episode's DOG has zero
// frames: there is nothing to step, and the mean-step-time division would
// otherwise panic. Callers detect it with errors.Is.
var ErrEmptyEpisode = errors.New("sim: episode has no frames")

// Stepper produces the rendered set for consecutive time steps of one
// episode. Implementations carry whatever recurrent state they need.
type Stepper interface {
	// Step returns rendered (length room.N): rendered[w] = true ⇔ w is
	// displayed for the target at step t. Frames arrive in temporal order.
	Step(t int, frame *occlusion.StaticGraph) []bool
}

// Recommender is an AFTER recommender F_t(·) (Definition 1) packaged for the
// harness.
type Recommender interface {
	Name() string
	StartEpisode(room *dataset.Room, target int) Stepper
}

// Func adapts a name and a closure to the Recommender interface; used to
// plug in POSHGNN sessions and ad-hoc recommenders without new types.
type Func struct {
	RecName string
	Start   func(room *dataset.Room, target int) Stepper
}

// Name implements Recommender.
func (f Func) Name() string { return f.RecName }

// StartEpisode implements Recommender.
func (f Func) StartEpisode(room *dataset.Room, target int) Stepper {
	return f.Start(room, target)
}

// EpisodeResult pairs a recommender's metrics with its identity.
type EpisodeResult struct {
	Recommender string
	Target      int
	metrics.Result
}

// RunEpisode drives rec through every frame of the target's DOG, timing each
// Step call, and scores the trace with β.
func RunEpisode(rec Recommender, room *dataset.Room, dog *occlusion.DOG, beta float64) (EpisodeResult, error) {
	res, _, err := RunEpisodeTrace(rec, room, dog, beta)
	return res, err
}

// RunEpisodeTrace is RunEpisode but also returns the raw rendering trace,
// for analyses that need per-step detail (significance tests, optimality
// gaps).
func RunEpisodeTrace(rec Recommender, room *dataset.Room, dog *occlusion.DOG, beta float64) (EpisodeResult, [][]bool, error) {
	dogs := []*occlusion.DOG{dog}
	targets, err := episodeTargets(room, dogs)
	if err != nil {
		return EpisodeResult{}, nil, err
	}
	stepper := rec.StartEpisode(room, dog.Target)
	out := make([][]bool, 1)
	step := func(t int, _ []int, frames []*occlusion.StaticGraph) [][]bool {
		out[0] = stepper.Step(t, frames[0])
		return out
	}
	ers, rendered, err := runEpisodes(rec.Name(), room, dogs, targets, beta, stepper, step)
	if err != nil {
		return EpisodeResult{}, nil, err
	}
	return ers[0], rendered[0], nil
}

// episodeTargets validates a set of episodes over one room — targets in
// range, at least one frame, equal frame counts — and returns their targets.
func episodeTargets(room *dataset.Room, dogs []*occlusion.DOG) ([]int, error) {
	if len(dogs) == 0 {
		return nil, fmt.Errorf("sim: no episodes")
	}
	targets := make([]int, len(dogs))
	for i, dog := range dogs {
		if dog.Target < 0 || dog.Target >= room.N {
			return nil, fmt.Errorf("sim: target %d out of range", dog.Target)
		}
		if len(dog.Frames) == 0 {
			return nil, fmt.Errorf("%w (target %d)", ErrEmptyEpisode, dog.Target)
		}
		if len(dog.Frames) != len(dogs[0].Frames) {
			return nil, fmt.Errorf("sim: batched episodes disagree on length (%d vs %d frames)", len(dog.Frames), len(dogs[0].Frames))
		}
		targets[i] = dog.Target
	}
	return targets, nil
}

// runEpisodes is the episode loop behind RunEpisodeTrace and
// RunBatchedEpisodes: once per time step it hands every dog's frame to step
// (a width-1 call for a per-target stepper), times the call, and finally
// scores each target's trace. The per-step obs histogram observes the
// amortized per-target latency (call wall time ÷ width) so per-target and
// fused runs chart on the same scale, and StepTime in each result is that
// same amortized mean. stepper is offered the episode's profiling labels.
func runEpisodes(rec string, room *dataset.Room, dogs []*occlusion.DOG, targets []int, beta float64, stepper any,
	step func(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool) ([]EpisodeResult, [][][]bool, error) {
	steps := len(dogs[0].Frames)
	rendered := make([][][]bool, len(dogs))
	for i := range rendered {
		rendered[i] = make([][]bool, steps)
	}
	// Per-recommender step-latency histogram and per-step span: both vanish
	// (nil handle / empty span name never interned) when obs is off, so the
	// disabled loop stays allocation-free.
	var stepHist *obs.Histogram
	var spanName string
	if obs.On() {
		stepHist = obs.Default().Histogram(obs.Label("sim.step", "rec", rec))
		spanName = "step." + rec
	}
	// Continuous-profiling attribution: label this goroutine (and, through
	// prof.Carrier, the stepper's internal phase switches) with the episode's
	// (room, rec) pair for the duration of the loop. One load-and-branch when
	// profiling is off.
	if prof.On() {
		ls := prof.NewLabels(room.Name, rec)
		if pc, ok := stepper.(prof.Carrier); ok {
			pc.SetProfLabels(ls)
		}
		ls.Set(prof.PhaseNone)
		defer prof.Clear()
	}
	frames := make([]*occlusion.StaticGraph, len(dogs))
	var elapsed time.Duration
	for t := 0; t < steps; t++ {
		for i, dog := range dogs {
			frames[i] = dog.Frames[t]
		}
		sp := obs.Begin(spanName)
		start := time.Now()
		out := step(t, targets, frames)
		d := time.Since(start)
		sp.End()
		elapsed += d
		stepHist.Observe(d / time.Duration(len(dogs)))
		for i := range dogs {
			rendered[i][t] = out[i]
		}
	}
	perTarget := elapsed / time.Duration(steps*len(dogs))
	results := make([]EpisodeResult, len(dogs))
	for i, dog := range dogs {
		res, err := metrics.Score(room, dog, rendered[i], beta)
		if err != nil {
			return nil, nil, err
		}
		res.StepTime = perTarget
		// Quality telemetry observes the finished trace (attribution, oracle
		// regret, churn, drift detectors). Gated on quality.On() — two atomic
		// loads when disabled — and pure observation when enabled: it touches
		// no RNG and mutates nothing, so scores are bit-identical either way.
		if quality.On() {
			quality.Default().RecordEpisode(rec, room, dog, rendered[i], beta)
		}
		results[i] = EpisodeResult{Recommender: rec, Target: dog.Target, Result: res}
		obsEpisodes.Inc()
	}
	return results, rendered, nil
}

// Evaluate runs each recommender over the same targets in room and returns,
// per recommender, the mean result across targets. Targets outside [0, N)
// are rejected. The DOG for each target is built once and shared across
// recommenders so everyone sees the identical scene.
//
// Episodes run as one work list over the parallel worker pool: every unit
// writes into its own result slots, and the per-recommender means are folded
// sequentially afterwards in input order. Recommenders therefore must hand
// out independent Steppers from concurrent StartEpisode calls and must not
// derive episode randomness from shared mutable RNG state — every built-in
// recommender seeds its episode RNG from (base seed, target), which keeps
// results bit-identical to a sequential run regardless of scheduling (see
// TestEvaluateDeterminism). Only StepTime varies between runs; it measures
// wall-clock.
//
// A recommender that also implements BatchRecommender runs as
// min(parallel.Limit(), len(targets)) contiguous target blocks, each one
// RunBatchedEpisodes call on its own StartBatch session, queued ahead of the
// per-target episodes (a batched error wins; one worker runs one fused batch
// over all targets). Batch width is pinned invisible in the output (float64
// path, see internal/core's batch tests), so scores do not depend on the
// route or the block count; only StepTime reflects the amortization.
func Evaluate(recs []Recommender, room *dataset.Room, targets []int, beta float64) (map[string]metrics.Result, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("sim: no targets")
	}
	dogs := make([]*occlusion.DOG, len(targets))
	for _, target := range targets {
		if target < 0 || target >= room.N {
			return nil, fmt.Errorf("sim: target %d out of range", target)
		}
	}
	// Each BuildDOG already fans its frames out over the pool; distributing
	// the targets too keeps the workers fed when episodes are short.
	parallel.ForEach(len(targets), func(i int) {
		dogs[i] = occlusion.BuildDOG(targets[i], room.Traj, room.AvatarRadius)
	})
	// Results sit row-major by (recommender, target); the work list is the
	// batch blocks, then the episodes row-major, so ForEachErr's lowest-index
	// error is the one a sequential loop in that order would hit first.
	results := make([]metrics.Result, len(recs)*len(targets))
	type unit struct {
		r, lo, hi int
		batch     BatchRecommender // nil for a per-target episode
	}
	var blocks, episodes []unit
	nb := min(parallel.Limit(), len(targets))
	for r, rec := range recs {
		if br, ok := rec.(BatchRecommender); ok {
			for b := 0; b < nb; b++ {
				blocks = append(blocks, unit{r, b * len(targets) / nb, (b + 1) * len(targets) / nb, br})
			}
			continue
		}
		for i := range targets {
			episodes = append(episodes, unit{r: r, lo: i, hi: i + 1})
		}
	}
	work := append(blocks, episodes...)
	err := parallel.ForEachErr(len(work), func(k int) error {
		u := work[k]
		slots := results[u.r*len(targets)+u.lo : u.r*len(targets)+u.hi]
		if u.batch != nil {
			ers, err := RunBatchedEpisodes(u.batch, room, dogs[u.lo:u.hi], beta)
			if err != nil {
				return fmt.Errorf("sim: %s batched: %w", u.batch.Name(), err)
			}
			for i, er := range ers {
				slots[i] = er.Result
			}
			return nil
		}
		er, err := RunEpisode(recs[u.r], room, dogs[u.lo], beta)
		if err != nil {
			return fmt.Errorf("sim: %s on target %d: %w", recs[u.r].Name(), targets[u.lo], err)
		}
		slots[0] = er.Result
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]metrics.Result, len(recs))
	for r, rec := range recs {
		out[rec.Name()] = metrics.Mean(results[r*len(targets) : (r+1)*len(targets)])
	}
	return out, nil
}

// DefaultTargets picks up to k well-spread target users for evaluation: the
// harness follows several targets and averages, since single-target traces
// are noisy. k ≤ 0 picks one; k beyond the room picks every user.
func DefaultTargets(room *dataset.Room, k int) []int {
	k = min(max(k, 1), room.N)
	targets := make([]int, 0, k)
	for i := 0; len(targets) < k; i += room.N / k {
		targets = append(targets, i)
	}
	return targets
}
