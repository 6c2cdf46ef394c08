package resilience

import (
	"fmt"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/metrics"
	"after/internal/obs/quality"
	"after/internal/occlusion"
	"after/internal/sim"
)

// runner holds the frame-plumbing state of one resilient episode; the
// protected stepping itself lives in the embedded Guard (shared with the
// online serving daemon).
type runner struct {
	g   *Guard
	src Source
	san *Sanitizer

	pending   *Frame // buffered future frame (arrived ahead of time)
	lastIndex int    // last consumed input index (-1 before the first)
}

// RunEpisode is RunEpisodeTrace without the trace.
func RunEpisode(rec sim.Recommender, room *dataset.Room, truth *occlusion.DOG, src Source, beta float64, cfg Config) (sim.EpisodeResult, error) {
	res, _, err := RunEpisodeTrace(rec, room, truth, src, beta, cfg)
	return res, err
}

// RunEpisodeTrace drives rec over the (possibly faulty) frame source and
// scores the resulting trace against the ground-truth DOG, so stale or
// repaired rendered sets pay their real utility cost. It mirrors
// sim.RunEpisodeTrace but never lets a bad frame or a bad stepper kill the
// episode: the returned Result carries the robustness counters describing
// every intervention.
func RunEpisodeTrace(rec sim.Recommender, room *dataset.Room, truth *occlusion.DOG, src Source, beta float64, cfg Config) (sim.EpisodeResult, [][]bool, error) {
	if truth.Target < 0 || truth.Target >= room.N {
		return sim.EpisodeResult{}, nil, fmt.Errorf("resilience: target %d out of range", truth.Target)
	}
	steps := len(truth.Frames)
	if steps == 0 {
		return sim.EpisodeResult{}, nil, fmt.Errorf("%w (target %d)", sim.ErrEmptyEpisode, truth.Target)
	}
	if src == nil {
		src = NewTrajectorySource(room.Traj)
	}
	r := &runner{
		g:         NewGuard(rec, room, truth.Target, cfg),
		src:       src,
		san:       NewSanitizer(room.N),
		lastIndex: -1,
	}

	rendered := make([][]bool, steps)
	var elapsed time.Duration
	for t := 0; t < steps; t++ {
		raw, ok := r.frameFor(t)
		if !ok {
			// Gap or exhausted stream: bridge with the last rendered set.
			r.g.tly.bump(kindDroppedFrame)
			rendered[t] = r.g.degrade()
			continue
		}
		pos, repaired := r.san.Sanitize(raw)
		if repaired {
			r.g.tly.bump(kindSanitizedFrame)
		}
		frame := occlusion.BuildStatic(truth.Target, pos, room.AvatarRadius)
		if r.g.stepper == nil {
			// Whole chain exhausted earlier: permanent hold-last-set.
			rendered[t] = r.g.degrade()
			continue
		}
		start := time.Now()
		rendered[t], _ = r.g.Step(t, frame, cfg.StepDeadline)
		elapsed += time.Since(start)
	}

	res, err := metrics.Score(room, truth, rendered, beta)
	if err != nil {
		return sim.EpisodeResult{}, nil, err
	}
	res.StepTime = elapsed / time.Duration(steps)
	res.Robustness = r.g.Robustness()
	// Quality telemetry over the realized (possibly degraded) trace, scored
	// against the ground-truth DOG — so fault-induced utility loss shows up
	// as regret and drift, which is exactly what the detectors monitor during
	// the chaos sweep. Same bit-identity contract as the sim hook.
	if quality.On() {
		quality.Default().RecordEpisode(rec.Name(), room, truth, rendered, beta)
	}
	return sim.EpisodeResult{Recommender: rec.Name(), Target: truth.Target, Result: res}, rendered, nil
}

// frameFor returns the raw positions claimed for output step t, consuming
// the source as needed. ok=false means the frame is missing (gap in the
// index sequence or exhausted stream) and the step must be bridged.
func (r *runner) frameFor(t int) ([]geom.Vec2, bool) {
	if r.pending != nil {
		if r.pending.Index > t {
			return nil, false // still ahead: this step's frame was dropped
		}
		f := *r.pending
		r.pending = nil
		if f.Index == t {
			r.lastIndex = t
			return f.Positions, true
		}
		// Buffered frame regressed below t (can only happen with Index
		// collisions); discard as stale and fall through to pulling.
		r.classifyStale(f.Index)
	}
	for {
		f, ok := r.src.Next()
		if !ok {
			return nil, false
		}
		switch {
		case f.Index == t:
			r.lastIndex = t
			return f.Positions, true
		case f.Index < t:
			r.classifyStale(f.Index)
			// keep pulling
		default: // f.Index > t: a gap — buffer the future frame
			r.pending = &f
			return nil, false
		}
	}
}

// classifyStale books a frame that arrived at or below an index the runner
// already served: an exact repeat of the last consumed index is a
// duplicate, anything else arrived out of order.
func (r *runner) classifyStale(index int) {
	if index == r.lastIndex {
		r.g.tly.bump(kindDuplicateFrame)
	} else {
		r.g.tly.bump(kindReorderedFrame)
	}
}

// Evaluate mirrors sim.Evaluate through the resilient runner: each
// recommender runs over the same targets, each episode fed by source. The
// source factory is called once per (recommender, target) pair and must
// return a deterministic stream per target so every recommender faces the
// identical fault sequence; nil uses the perfect trajectory source.
func Evaluate(recs []sim.Recommender, room *dataset.Room, targets []int, beta float64, cfg Config, source func(target int) Source) (map[string]metrics.Result, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("resilience: no targets")
	}
	dogs := make([]*occlusion.DOG, len(targets))
	for i, target := range targets {
		if target < 0 || target >= room.N {
			return nil, fmt.Errorf("resilience: target %d out of range", target)
		}
		dogs[i] = occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
	}
	out := make(map[string]metrics.Result, len(recs))
	for _, rec := range recs {
		rs := make([]metrics.Result, 0, len(targets))
		for i, target := range targets {
			var src Source
			if source != nil {
				src = source(target)
			}
			er, err := RunEpisode(rec, room, dogs[i], src, beta, cfg)
			if err != nil {
				return nil, fmt.Errorf("resilience: %s on target %d: %w", rec.Name(), target, err)
			}
			rs = append(rs, er.Result)
		}
		out[rec.Name()] = metrics.Mean(rs)
	}
	return out, nil
}
