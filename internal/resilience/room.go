package resilience

import (
	"sync/atomic"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/sim"
)

// Result is what Room.Step serves one target for one frame.
type Result struct {
	// Rendered is the full-length rendered set.
	Rendered []bool
	// Fresh is false when the set came from the hold state (a missed
	// deadline, exhausted retries or chain, or malformed output).
	Fresh bool
	// Fused is true when the set came out of the room's fused pass, or from
	// the hold state that pass served after missing its deadline, rather than
	// from a solo guard step.
	Fused bool
	// ServedBy names the recommender serving the target's session, or "hold"
	// once its whole fallback chain is exhausted.
	ServedBy string
}

// Room is the protected step of one live room: every target it serves gets a
// Guard, and when the primary can batch, the targets still on the primary
// share one fused session. Step runs one micro-batch under this policy:
//
//   - the targets whose guard is still on a batch-capable primary share one
//     StepTargets call, raced under the tightest member budget;
//   - a fused pass that panics sends its members through their own guards
//     for that frame, and the shared session is rebuilt for the next;
//   - more than MaxRetries consecutive fused panics, or a straggler still
//     running past the grace, retire the fused pass for good;
//   - a fused pass that misses its deadline serves every member its hold;
//   - a primary that cannot batch starts retired, so every target steps
//     solo through its guard.
//
// Like Guard, a Room is not safe for concurrent use: one goroutine calls
// Step (the serving micro-batcher's room worker).
type Room struct {
	rec  sim.Recommender
	room *dataset.Room
	cfg  Config

	guards   map[int]*Guard
	sessions atomic.Int64

	batch   sim.BatchStepper // nil until a pass needs it, and after a panic
	retired bool
	panics  int // consecutive fused-pass panics
}

// NewRoom returns the protected stepper for room, serving rec backed by
// cfg.Fallbacks. cfg.StepDeadline is unused: each Step call carries its
// targets' budgets.
func NewRoom(rec sim.Recommender, room *dataset.Room, cfg Config) *Room {
	_, canBatch := rec.(sim.BatchRecommender)
	return &Room{rec: rec, room: room, cfg: cfg, guards: make(map[int]*Guard), retired: !canBatch}
}

// Sessions returns how many per-target sessions the room has started. It is
// safe to call from any goroutine.
func (r *Room) Sessions() int64 { return r.sessions.Load() }

// Step serves frame t, the position snapshot pos, to each of the distinct
// targets; budgets[i] is targets[i]'s remaining deadline (<= 0 means
// unbounded). Each target's static graph is built once: the fused members'
// in one fan-out before the pass, a solo target's inside the solo fan-out
// just before its own step. One room.convert span covers the fused
// fan-out and another each solo build. These and the batch.step and
// guard.step spans hang off parent, and labels attributes the steps' CPU in
// the continuous profiler (nil skips it).
//
// done(i, res) is called once for each targets[i] as soon as its set is
// ready, so no target waits for a slower one: for the fused pass's members
// right after the pass, and for every other target inside the solo
// fan-out, concurrently, as its own guard step returns. Step returns how
// many members the fused pass returned in time, 0 when no pass ran or it
// panicked or missed its deadline.
func (r *Room) Step(t int, targets []int, pos []geom.Vec2, budgets []time.Duration, parent obs.SpanID, labels *prof.Labels, done func(i int, res Result)) (fused int) {
	gs := make([]*Guard, len(targets))
	var members, solo []int
	for i, target := range targets {
		g := r.guards[target]
		if g == nil {
			g = NewGuard(r.rec, r.room, target, r.cfg)
			r.guards[target] = g
			r.sessions.Add(1)
		}
		gs[i] = g
		// A demoted session's fallback keeps its own per-target state, so
		// only sessions still on the primary can share the fused pass.
		if !r.retired && g.stepper != nil && g.chainIdx == 0 {
			members = append(members, i)
		} else {
			solo = append(solo, i)
		}
	}
	// A panicked pass's members step solo on the frames built for it.
	frames := make([]*occlusion.StaticGraph, len(targets))
	if len(members) > 0 {
		ts := make([]int, len(members))
		fs := make([]*occlusion.StaticGraph, len(members))
		sp := obs.BeginChild("room.convert", parent)
		parallel.ForEach(len(members), func(j int) {
			i := members[j]
			frames[i] = occlusion.BuildStatic(targets[i], pos, r.room.AvatarRadius)
			ts[j], fs[j] = targets[i], frames[i]
		})
		sp.End()
		var dl time.Duration
		for _, i := range members {
			// One shared forward cannot outlive its most impatient member.
			if b := budgets[i]; b > 0 && (dl == 0 || b < dl) {
				dl = b
			}
		}
		outs, hold := r.stepFused(t, ts, fs, dl, parent, labels)
		for j, i := range members {
			switch g := gs[i]; {
			case outs != nil:
				rendered, fresh := g.acceptOutput(outs[j])
				done(i, Result{Rendered: rendered, Fresh: fresh, Fused: true, ServedBy: g.ServedBy()})
			case hold:
				done(i, Result{Rendered: g.degrade(), Fused: true, ServedBy: g.ServedBy()})
			default:
				solo = append(solo, i)
			}
		}
		if outs != nil {
			fused = len(members)
		}
	}
	// Each guard step already races its own goroutine under its deadline
	// timer, so the fan-out is not bounded by the worker pool: a bound
	// would only queue a short-deadline target behind slower ones. It
	// starts at most one goroutine per distinct target in the batch.
	parallel.ForEachN(len(solo), len(solo), func(j int) {
		i := solo[j]
		g := gs[i]
		if frames[i] == nil {
			sp := obs.BeginChild("room.convert", parent)
			frames[i] = occlusion.BuildStatic(targets[i], pos, r.room.AvatarRadius)
			sp.End()
		}
		g.carry(parent, labels)
		rendered, fresh := g.Step(t, frames[i], budgets[i])
		done(i, Result{Rendered: rendered, Fresh: fresh, ServedBy: g.ServedBy()})
	})
	return fused
}

// stepFused runs one StepTargets call on the shared session, raced under dl.
// outs holds the pass's sets when it returned in time. Otherwise hold
// reports whether the members serve their hold state (the pass missed its
// deadline) or, false, step solo for this frame (it panicked in time, so
// its session is suspect).
func (r *Room) stepFused(t int, targets []int, frames []*occlusion.StaticGraph, dl time.Duration, parent obs.SpanID, labels *prof.Labels) (outs [][]bool, hold bool) {
	if r.batch == nil {
		r.batch = r.rec.(sim.BatchRecommender).StartBatch(r.room)
	}
	if tc, ok := r.batch.(sim.TraceCarrier); ok {
		tc.SetTraceParent(parent)
	}
	if pc, ok := r.batch.(prof.Carrier); ok {
		pc.SetProfLabels(labels)
	}
	bs := r.batch
	outs, outcome := Race(r.cfg, dl, func() [][]bool {
		res := bs.StepTargets(t, targets, frames)
		if len(res) != len(targets) {
			// As bad as a panic: the guards re-step and validate solo.
			panic("resilience: malformed fused result")
		}
		return res
	})
	switch outcome {
	case RaceOK:
		r.panics = 0
		return outs, false
	case RacePanicked:
		r.notePanic()
		return nil, false
	case RaceLatePanic:
		// A late pass is discarded like a late solo step; its panic still
		// counts against the fused pass.
		r.notePanic()
	case RaceAbandoned:
		// The straggler still owns the shared session, so it can never be
		// reused safely.
		r.batch, r.retired = nil, true
	}
	return nil, true
}

// notePanic books one fused-pass panic: the shared session is rebuilt for
// the next pass, and more than MaxRetries in a row retire the fused pass.
func (r *Room) notePanic() {
	r.panics++
	r.batch = nil
	if r.panics > r.cfg.MaxRetries {
		r.retired = true
	}
}
