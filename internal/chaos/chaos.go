// Package chaos is a deterministic, seeded fault injector for the resilient
// session runner (internal/resilience). It attacks both sides of the
// episode contract:
//
//   - the input stream: a Source wraps a recorded trajectory and injects
//     frame drops, duplication, reordering, NaN/Inf coordinates, frozen
//     trajectories, and mid-episode user churn at configurable rates;
//   - the recommender: WrapRecommender wraps any sim.Recommender so its
//     steppers sporadically panic or stall past the frame deadline.
//
// Everything is driven by a single seed, so a fault sequence is exactly
// reproducible — chaos runs are experiments, not flakes. The injector never
// imports the runner's internals; it only produces resilience.Frame values
// and sim.Stepper wrappers, so it can also be aimed at the plain harness to
// demonstrate the failures the resilient runner exists to absorb.
package chaos

import (
	"math"
	"math/rand"
	"time"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/resilience"
	"after/internal/sim"
)

// Config sets per-step fault probabilities. All rates are in [0,1] and
// independent; the zero value injects nothing.
type Config struct {
	// Seed drives all randomness (per-target sources derive sub-seeds).
	Seed int64

	// DropRate is the probability a frame is silently dropped.
	DropRate float64
	// DupRate is the probability a frame is delivered twice.
	DupRate float64
	// ReorderRate is the probability a frame swaps with its successor.
	ReorderRate float64
	// NaNRate is the probability one user's coordinates are corrupted to
	// NaN or ±Inf.
	NaNRate float64
	// FreezeRate is the probability the trajectory feed freezes: the next
	// FreezeLen frames repeat the last delivered positions.
	FreezeRate float64
	// FreezeLen is the length of a freeze; 0 means 3 frames.
	FreezeLen int
	// ChurnRate is the probability a frame covers fewer users than room.N
	// (mid-episode churn: late joiners / early leavers).
	ChurnRate float64

	// PanicRate is the probability a Step call panics (transient: a retry
	// re-rolls).
	PanicRate float64
	// LatencyRate is the probability a Step call stalls for LatencySpike.
	LatencyRate float64
	// LatencySpike is the injected stall; 0 means 20ms.
	LatencySpike time.Duration
}

// Uniform returns a Config injecting every fault kind at rate r.
func Uniform(seed int64, r float64) Config {
	return Config{
		Seed:     seed,
		DropRate: r, DupRate: r, ReorderRate: r, NaNRate: r,
		FreezeRate: r, ChurnRate: r,
		PanicRate: r, LatencyRate: r,
	}
}

func (c Config) freezeLen() int {
	if c.FreezeLen > 0 {
		return c.FreezeLen
	}
	return 3
}

func (c Config) latencySpike() time.Duration {
	if c.LatencySpike > 0 {
		return c.LatencySpike
	}
	return 20 * time.Millisecond
}

// subSeed derives a per-target stream seed so every recommender facing the
// same target sees the identical fault sequence.
func (c Config) subSeed(target int) int64 {
	return c.Seed ^ (int64(target)+1)*0x9e3779b97f4a7c5
}

// Source replays a precomputed faulty frame sequence. Construction applies
// all input-side faults eagerly, so two sources built from the same
// trajectory and config deliver byte-identical streams.
type Source struct {
	frames []resilience.Frame
	i      int
}

// Next implements resilience.Source.
func (s *Source) Next() (resilience.Frame, bool) {
	if s.i >= len(s.frames) {
		return resilience.Frame{}, false
	}
	f := s.frames[s.i]
	s.i++
	return f, true
}

// Len returns the number of frames the source will deliver.
func (s *Source) Len() int { return len(s.frames) }

// NewSource builds a faulty source over tr seeded by cfg.Seed.
func NewSource(tr *crowd.Trajectories, cfg Config) *Source {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := tr.Agents()
	var out []resilience.Frame
	frozen := 0
	var frozenPos []geom.Vec2
	for t := 0; t < tr.Steps(); t++ {
		// Copy so corruption never touches the ground-truth trajectory.
		pos := make([]geom.Vec2, len(tr.Pos[t]))
		copy(pos, tr.Pos[t])

		if frozen > 0 {
			copy(pos, frozenPos)
			frozen--
		} else if roll(rng, cfg.FreezeRate) && t > 0 {
			frozenPos = make([]geom.Vec2, len(tr.Pos[t-1]))
			copy(frozenPos, tr.Pos[t-1])
			copy(pos, frozenPos)
			frozen = cfg.freezeLen() - 1
		}
		if roll(rng, cfg.NaNRate) && n > 0 {
			w := rng.Intn(n)
			if rng.Intn(2) == 0 {
				pos[w].X = math.NaN()
			} else {
				pos[w].Z = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		if roll(rng, cfg.ChurnRate) && n > 2 {
			cut := 1 + rng.Intn(maxInt(1, n/4))
			pos = pos[:n-cut]
		}
		if roll(rng, cfg.DropRate) {
			continue
		}
		out = append(out, resilience.Frame{Index: t, Positions: pos})
		if roll(rng, cfg.DupRate) {
			dup := make([]geom.Vec2, len(pos))
			copy(dup, pos)
			out = append(out, resilience.Frame{Index: t, Positions: dup})
		}
	}
	// Reorder pass: swap adjacent frames.
	for i := 0; i+1 < len(out); i++ {
		if roll(rng, cfg.ReorderRate) {
			out[i], out[i+1] = out[i+1], out[i]
			i++ // don't immediately re-swap back
		}
	}
	return &Source{frames: out}
}

// SourceFactory returns a per-target source builder for
// resilience.Evaluate: each target gets its own deterministic sub-seeded
// fault stream, identical across recommenders.
func SourceFactory(tr *crowd.Trajectories, cfg Config) func(target int) resilience.Source {
	return func(target int) resilience.Source {
		c := cfg
		c.Seed = cfg.subSeed(target)
		return NewSource(tr, c)
	}
}

// WrapRecommender wraps inner so each of its steppers panics with
// probability PanicRate and stalls LatencySpike with probability
// LatencyRate, per step, deterministically per (seed, target). The wrapper
// keeps inner's name, so result tables line up with the clean run, and
// stays batch-capable when inner is (see sim.WrapSteps): each episode rolls
// from its target's sub-seeded stream, and a shared batch session rolls from
// its own stream (sub-seed -1) once per fused StepTargets call — a panic
// there takes down the whole fused pass, which is exactly the failure the
// serving layer's solo-fallback logic must absorb.
func WrapRecommender(inner sim.Recommender, cfg Config) sim.Recommender {
	return sim.WrapSteps(inner, func(target int) func() {
		rng := rand.New(rand.NewSource(cfg.subSeed(target) ^ 0x5ca1ab1e))
		msg := "chaos: injected stepper panic"
		if target < 0 {
			msg = "chaos: injected batch stepper panic"
		}
		return func() {
			if roll(rng, cfg.LatencyRate) {
				sleep(cfg.latencySpike())
			}
			if roll(rng, cfg.PanicRate) {
				panic(msg)
			}
		}
	})
}

// sleep performs an injected stall; tests swap it to observe stalls without
// waiting them out.
var sleep = time.Sleep

func roll(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
