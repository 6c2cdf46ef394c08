package resilience

import (
	"time"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
	"after/internal/sim"
)

// Clock abstracts wall time for the retry/backoff path so the deadline-aware
// retry budget is unit-testable with a fake clock. The zero Config uses the
// real clock. The frame-deadline race (Race) intentionally stays on real
// timers — it bounds a live goroutine, not simulated time — so a fake clock
// only governs when retries are attempted and how long backoff sleeps.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

func (c Config) clock() Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return realClock{}
}

// graceFor returns how long past a missed deadline dl the runner waits for a
// straggling Step before abandoning it. With AbandonAfter set the grace is
// the remainder of that absolute budget; otherwise it defaults to 9×dl (the
// historical 10×StepDeadline total, minus the deadline already spent).
func (c Config) graceFor(dl time.Duration) time.Duration {
	if c.AbandonAfter > 0 {
		g := c.AbandonAfter - dl
		if g < 0 {
			g = 0
		}
		return g
	}
	return 9 * dl
}

// Guard wraps one live stepper session — a primary recommender plus its
// demotion chain — with the full protected-step machinery: panic recovery,
// deadline-aware retry-with-backoff, the per-step frame deadline raced in a
// goroutine, demotion down the fallback chain on permanent failure, and the
// terminal hold-last-rendered-set state. The episode runner drives one Guard
// over a recorded frame stream; a Room holds one per target of a live room
// and passes each request's remaining deadline into Step.
//
// A Guard is not safe for concurrent use: callers serialize Step per guard
// (a Room steps each target on exactly one goroutine).
type Guard struct {
	room   *dataset.Room
	target int
	cfg    Config
	clk    Clock

	tly      tally
	chain    []sim.Recommender
	chainIdx int
	stepper  sim.Stepper // nil once the whole chain is exhausted

	lastRendered []bool
	latePanics   int // consecutive post-deadline panics on the active stepper

	// traceParent parents the guard.step span of the next Step call; a Room
	// sets its caller's batch span here before each solo step.
	traceParent obs.SpanID

	// profLabels is the continuous-profiling attribution handle forwarded to
	// every stepper the guard starts (the chain head and each demotion), so
	// solo serving steps carry (room, rec, phase) pprof labels like fused ones.
	profLabels *prof.Labels
}

// carry parents the guard.step span of subsequent Step calls under parent
// and forwards the profiling labels to the active stepper and to every
// stepper a later demotion starts. Steppers without the prof.Carrier
// capability just skip attribution.
func (g *Guard) carry(parent obs.SpanID, l *prof.Labels) {
	g.traceParent = parent
	g.profLabels = l
	if pc, ok := g.stepper.(prof.Carrier); ok {
		pc.SetProfLabels(l)
	}
}

// NewGuard starts a protected session for target in room: the primary
// recommender backed by cfg.Fallbacks, demoted in order, with hold-last-set
// as the implicit final fallback. target must be in [0, room.N).
func NewGuard(rec sim.Recommender, room *dataset.Room, target int, cfg Config) *Guard {
	g := &Guard{
		room:         room,
		target:       target,
		cfg:          cfg,
		clk:          cfg.clock(),
		chain:        append([]sim.Recommender{rec}, cfg.Fallbacks...),
		lastRendered: make([]bool, room.N),
	}
	g.stepper = g.chain[0].StartEpisode(room, target)
	return g
}

// ServedBy names the recommender currently serving the session, or "hold"
// once the whole chain is exhausted.
func (g *Guard) ServedBy() string {
	if g.stepper == nil {
		return "hold"
	}
	return g.chain[g.chainIdx].Name()
}

// Robustness returns the session's intervention counters so far.
func (g *Guard) Robustness() metrics.Robustness { return g.tly.robustness() }

// Step produces the rendered set to serve for step t, degrading instead of
// failing: the result is always a full-length set. fresh=false means the set
// came from the hold-state (a missed deadline, exhausted retries, exhausted
// chain, or malformed stepper output) rather than a live stepper. deadline
// bounds the whole call — the raced Step attempt, retries, and their backoff
// sleeps all share it, so a Step call never outlives the caller's budget by
// more than the configured straggler grace. deadline <= 0 disables the
// deadline path entirely (inline call, unbounded retries), matching the
// zero-value episode Config.
func (g *Guard) Step(t int, frame *occlusion.StaticGraph, deadline time.Duration) (out []bool, fresh bool) {
	sp := obs.BeginChild("guard.step", g.traceParent)
	defer sp.End()
	if g.stepper == nil {
		return g.degrade(), false
	}
	raw, ok := g.protectedStep(t, frame, deadline)
	if !ok {
		return g.degrade(), false
	}
	return g.acceptOutput(raw)
}

// degrade serves the current step from the last good rendered set.
func (g *Guard) degrade() []bool {
	g.tly.bump(kindDegradedStep)
	out := make([]bool, len(g.lastRendered))
	copy(out, g.lastRendered)
	return out
}

// acceptOutput validates a fresh rendered set, repairing a self-rendered
// target and degrading on structurally broken output. A Room books its fused
// pass's sets through it too, so hold and degradation behave the same
// whichever path produced the set.
func (g *Guard) acceptOutput(out []bool) ([]bool, bool) {
	if len(out) != g.room.N {
		// A stepper returning a malformed set is as bad as one that
		// panicked for this frame: serve stale instead.
		return g.degrade(), false
	}
	if out[g.target] {
		fixed := make([]bool, len(out))
		copy(fixed, out)
		fixed[g.target] = false
		out = fixed
	}
	copy(g.lastRendered, out)
	return out, true
}

// protectedStep runs Step under panic recovery, the frame deadline, and
// deadline-aware retry-with-backoff, demoting down the fallback chain on
// permanent failure. ok=false means this step must be served from stale
// state (the current stepper may or may not survive, per the demotion
// rules).
func (g *Guard) protectedStep(t int, frame *occlusion.StaticGraph, dl time.Duration) ([]bool, bool) {
	// deadlineAt is the absolute budget the whole call — attempts, retries,
	// and backoff sleeps — must respect. Zero when no deadline applies.
	var deadlineAt time.Time
	if dl > 0 {
		deadlineAt = g.clk.Now().Add(dl)
	}
	for g.stepper != nil {
		retriesLeft := g.cfg.MaxRetries
		for attempt := 0; ; attempt++ {
			adl := dl
			if !deadlineAt.IsZero() {
				// Later attempts race against what is left of the original
				// budget, not a fresh full deadline.
				adl = deadlineAt.Sub(g.clk.Now())
				if adl <= 0 {
					// Budget exhausted before the attempt could be issued
					// (backoff sleeps ate it): serve stale, keep the stepper
					// — running out of time is not evidence it is broken
					// beyond the panics already booked.
					g.tly.bump(kindDeadlineMiss)
					return nil, false
				}
			}
			st := g.stepper
			out, outcome := Race(g.cfg, adl, func() []bool { return st.Step(t, frame) })
			switch outcome {
			case RaceOK:
				g.latePanics = 0
				return out, true
			case RacePanicked:
				g.tly.bump(kindRecoveredPanic)
				if retriesLeft > 0 {
					if !g.backoff(attempt, deadlineAt) {
						// The next backoff sleep would outlive the caller's
						// deadline: stop retrying, serve stale, keep the
						// stepper and its remaining retry budget.
						g.tly.bump(kindDeadlineMiss)
						return nil, false
					}
					retriesLeft--
					g.tly.bump(kindRetry)
					continue
				}
				g.demote()
				// The fresh fallback (if any) gets a shot at this frame.
			case RaceLateOK:
				// Missed the deadline but the straggler finished within
				// the grace period: serve stale now, keep the stepper.
				g.tly.bump(kindDeadlineMiss)
				g.latePanics = 0
				return nil, false
			case RaceLatePanic:
				// The straggler both missed the deadline and panicked. A
				// transient panic on an already-missed frame doesn't merit
				// instant demotion — the frame is served stale either way —
				// but a stepper that keeps dying late is written off once
				// it exhausts the retry budget in consecutive misses.
				g.tly.bump(kindDeadlineMiss)
				g.tly.bump(kindRecoveredPanic)
				g.latePanics++
				if g.latePanics > g.cfg.MaxRetries {
					g.demote()
				}
				return nil, false
			case RaceAbandoned:
				// Straggler still running after the grace period: it is
				// written off (the goroutine drains harmlessly) and the
				// chain demotes for future steps.
				g.tly.bump(kindDeadlineMiss)
				g.demote()
				return nil, false
			}
			break // demoted: restart the retry budget on the new stepper
		}
	}
	return nil, false
}

// demote advances the fallback chain, starting the next recommender fresh
// at the current episode position, or enters permanent hold-last-set mode
// when the chain is exhausted.
func (g *Guard) demote() {
	g.tly.bump(kindDemotion)
	g.chainIdx++
	if g.chainIdx < len(g.chain) {
		g.stepper = g.chain[g.chainIdx].StartEpisode(g.room, g.target)
		if pc, ok := g.stepper.(prof.Carrier); ok {
			pc.SetProfLabels(g.profLabels)
		}
	} else {
		g.stepper = nil
	}
}

// backoff sleeps the exponential retry backoff for the given attempt,
// reporting false — without sleeping — when the sleep would reach or outlive
// deadlineAt (zero deadlineAt never bounds). A retry whose backoff cannot
// complete inside the caller's budget is pointless: the result would arrive
// after the deadline anyway, so the caller serves stale immediately instead.
func (g *Guard) backoff(attempt int, deadlineAt time.Time) bool {
	if g.cfg.RetryBackoff <= 0 {
		return deadlineAt.IsZero() || g.clk.Now().Before(deadlineAt)
	}
	if attempt > 6 {
		attempt = 6 // cap the exponent; backoff is jitter-free and bounded
	}
	d := g.cfg.RetryBackoff << uint(attempt)
	if !deadlineAt.IsZero() && d >= deadlineAt.Sub(g.clk.Now()) {
		return false
	}
	g.clk.Sleep(d)
	return true
}

// Outcome classifies one deadline-raced call (see Race).
type Outcome int

const (
	// RaceOK: the call returned within its deadline.
	RaceOK Outcome = iota
	// RacePanicked: the call panicked within its deadline.
	RacePanicked
	// RaceLateOK: the call missed its deadline but returned within the
	// straggler grace; its result is stale and discarded.
	RaceLateOK
	// RaceLatePanic: the call missed its deadline, then panicked within the
	// grace.
	RaceLatePanic
	// RaceAbandoned: the call was still running when the grace ran out. It is
	// written off and finishes harmlessly on its own goroutine.
	RaceAbandoned
)

// Race runs call under panic recovery — inline when dl <= 0, otherwise on its
// own goroutine raced against the dl timer — and classifies the outcome.
// After a missed deadline it waits cfg's straggler grace for the call to
// finish. The result is meaningful only with RaceOK. It is the one deadline
// race behind Guard's protected steps and Room's fused passes; each books
// the outcomes its own way.
func Race[T any](cfg Config, dl time.Duration, call func() T) (T, Outcome) {
	var zero T
	if dl <= 0 {
		if v, panicked := recovered(call); !panicked {
			return v, RaceOK
		}
		return zero, RacePanicked
	}
	type result struct {
		v        T
		panicked bool
	}
	// Buffered so an abandoned straggler can always complete its send and be
	// collected.
	ch := make(chan result, 1)
	go func() {
		v, panicked := recovered(call)
		ch <- result{v, panicked}
	}()
	deadline := time.NewTimer(dl)
	defer deadline.Stop()
	select {
	case r := <-ch:
		if r.panicked {
			return zero, RacePanicked
		}
		return r.v, RaceOK
	case <-deadline.C:
	}
	grace := time.NewTimer(cfg.graceFor(dl))
	defer grace.Stop()
	select {
	case r := <-ch:
		if r.panicked {
			return zero, RaceLatePanic
		}
		return zero, RaceLateOK
	case <-grace.C:
		return zero, RaceAbandoned
	}
}

// recovered runs call, reporting a panic instead of propagating it.
func recovered[T any](call func() T) (v T, panicked bool) {
	defer func() {
		if recover() != nil {
			var zero T
			v, panicked = zero, true
		}
	}()
	return call(), false
}
