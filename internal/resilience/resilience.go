// Package resilience hardens the sim harness for production conditions: a
// session runner that keeps an episode alive when the input stream or the
// recommender itself misbehaves. The plain harness (internal/sim) assumes a
// perfect world — every frame arrives, in order, with finite coordinates,
// and every Step returns quickly and never panics. This package drops each
// of those assumptions one by one:
//
//   - panic recovery with retry-with-backoff for transient Step failures,
//     demoting down a configurable fallback chain (e.g. POSHGNN → Nearest →
//     hold-last-rendered-set) when a stepper keeps failing;
//   - a per-step frame deadline with bounded-staleness degradation: a
//     missed deadline re-serves the last good rendered set and records the
//     miss instead of stalling the frame loop;
//   - input sanitization: NaN/Inf coordinates, out-of-order or duplicated
//     frame indices, dropped frames, and mid-episode user churn (frames
//     covering fewer users than room.N) are repaired or bridged;
//   - robustness accounting: every intervention lands in a
//     metrics.Robustness counter attached to the episode's Result.
//
// The episode is always scored against the ground-truth DOG, so the
// reported utility is the utility the user actually experienced — stale or
// repaired rendered sets pay their real cost. This mirrors how production
// GNN serving treats staleness (LiGNN-style bounded-staleness serving) and
// makes the degradation that COMURNet's stale-set emulation only implies an
// explicit, measurable subsystem.
package resilience

import (
	"math"
	"time"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/sim"
)

// Frame is one raw observation delivered by the transport layer: the
// producer-claimed step index plus the positions of the users it saw. Both
// may be wrong — indices can repeat, jump, or regress, and positions can be
// non-finite or cover fewer users than the room holds.
type Frame struct {
	// Index is the producer-claimed step index.
	Index int
	// Positions holds the observed user positions; ideally room.N of them.
	Positions []geom.Vec2
}

// Source yields frames in arrival order. Next reports ok=false when the
// stream is exhausted; the runner bridges any remaining steps from its last
// good state.
type Source interface {
	Next() (frame Frame, ok bool)
}

// TrajectorySource adapts a recorded trajectory into a perfect, in-order,
// loss-free Source — the identity transport. Driving the resilient runner
// with it must reproduce the plain harness bit-for-bit (tested).
type TrajectorySource struct {
	traj *crowd.Trajectories
	t    int
}

// NewTrajectorySource returns a perfect source over tr.
func NewTrajectorySource(tr *crowd.Trajectories) *TrajectorySource {
	return &TrajectorySource{traj: tr}
}

// Next implements Source.
func (s *TrajectorySource) Next() (Frame, bool) {
	if s.t >= s.traj.Steps() {
		return Frame{}, false
	}
	f := Frame{Index: s.t, Positions: s.traj.Pos[s.t]}
	s.t++
	return f, true
}

// Config tunes the resilient runner. The zero value disables the deadline
// path, performs no retries, and has an empty fallback chain (the implicit
// final fallback — hold the last rendered set — always exists).
type Config struct {
	// StepDeadline bounds every Step call; 0 disables the deadline path
	// entirely (steps run inline, no goroutine).
	StepDeadline time.Duration
	// AbandonAfter is how long past a missed deadline the runner waits for
	// the straggling Step before writing the stepper off and demoting to
	// the next fallback. 0 means 10× StepDeadline. A straggler that
	// finishes within the grace period keeps its job (its late result is
	// discarded for the missed frame, but its recurrent state advanced).
	AbandonAfter time.Duration
	// MaxRetries is how many times a panicking Step is re-issued on the
	// same stepper before the runner demotes to the next fallback.
	MaxRetries int
	// RetryBackoff sleeps RetryBackoff << attempt between retries; 0
	// retries immediately.
	RetryBackoff time.Duration
	// Fallbacks is the demotion chain tried, in order, after the primary
	// recommender fails permanently. Each fallback starts a fresh episode
	// at the current step. After the last entry the runner holds the last
	// rendered set for the remainder of the episode.
	Fallbacks []sim.Recommender
	// Clock overrides wall time for retry/backoff bookkeeping (fake clocks
	// in tests); nil uses the real clock.
	Clock Clock
}

// Sanitizer repairs raw frames into full-length, finite position snapshots.
// It carries the last known good position per user so NaN/Inf coordinates
// and churned-away users degrade to bounded-stale data instead of poisoning
// the occlusion converter. The resilient episode runner owns one per
// episode; the serving daemon owns one per live room.
type Sanitizer struct {
	n        int
	lastGood []geom.Vec2
}

// NewSanitizer returns a Sanitizer for rooms of n users.
func NewSanitizer(n int) *Sanitizer {
	return &Sanitizer{n: n, lastGood: make([]geom.Vec2, n)}
}

func finite(v geom.Vec2) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// Sanitize returns a full-length finite snapshot and whether any repair was
// necessary. The returned slice is owned by the caller.
func (s *Sanitizer) Sanitize(raw []geom.Vec2) (pos []geom.Vec2, repaired bool) {
	pos = make([]geom.Vec2, s.n)
	if len(raw) != s.n {
		repaired = true // churned (short) or over-long frame
	}
	for w := 0; w < s.n; w++ {
		switch {
		case w < len(raw) && finite(raw[w]):
			pos[w] = raw[w]
		default:
			// Missing or non-finite: hold the user at the last good
			// position (the origin before any good observation — a frozen
			// ghost beats a NaN that would corrupt every arc).
			pos[w] = s.lastGood[w]
			repaired = true
		}
	}
	copy(s.lastGood, pos)
	return pos, repaired
}

// kind indexes one intervention class. The runner books every intervention
// through exactly one code path (tally.bump), which feeds both the episode's
// metrics.Robustness and the process-wide obs counters — the single source
// of truth the chaos sweep and the live /metrics endpoint share.
type kind int

const (
	kindRecoveredPanic kind = iota
	kindRetry
	kindDemotion
	kindDeadlineMiss
	kindDegradedStep
	kindSanitizedFrame
	kindDroppedFrame
	kindDuplicateFrame
	kindReorderedFrame
	numKinds
)

// obsCounters are the process-wide intervention counters (obs-gated, cached
// across registry resets), index-aligned with the kind enum.
var obsCounters = [numKinds]*obs.Counter{
	obs.Default().Counter("resilience.recovered_panics"),
	obs.Default().Counter("resilience.retries"),
	obs.Default().Counter("resilience.demotions"),
	obs.Default().Counter("resilience.deadline_misses"),
	obs.Default().Counter("resilience.degraded_steps"),
	obs.Default().Counter("resilience.sanitized_frames"),
	obs.Default().Counter("resilience.dropped_frames"),
	obs.Default().Counter("resilience.duplicate_frames"),
	obs.Default().Counter("resilience.reordered_frames"),
}

// tally is one episode's intervention counts.
type tally [numKinds]int64

// bump books one intervention: the per-episode tally always, the global obs
// counter when observability is on.
func (t *tally) bump(k kind) {
	t[k]++
	obsCounters[k].Inc()
}

// robustness converts the episode tally to the metrics.Robustness attached
// to the episode Result, saturating at the int range on 32-bit platforms.
func (t *tally) robustness() metrics.Robustness {
	toInt := func(v int64) int {
		if v > math.MaxInt {
			return math.MaxInt
		}
		return int(v)
	}
	return metrics.Robustness{
		RecoveredPanics: toInt(t[kindRecoveredPanic]),
		Retries:         toInt(t[kindRetry]),
		Demotions:       toInt(t[kindDemotion]),
		DeadlineMisses:  toInt(t[kindDeadlineMiss]),
		DegradedSteps:   toInt(t[kindDegradedStep]),
		SanitizedFrames: toInt(t[kindSanitizedFrame]),
		DroppedFrames:   toInt(t[kindDroppedFrame]),
		DuplicateFrames: toInt(t[kindDuplicateFrame]),
		ReorderedFrames: toInt(t[kindReorderedFrame]),
	}
}
