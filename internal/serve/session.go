package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/resilience"
	"after/internal/sim"
)

// RoomSpec describes a room to create. Zero fields take defaults: Kind
// "timik", 40 users, seed 1, horizon 8.
type RoomSpec struct {
	// Name is the room identifier; empty auto-assigns "room-<seq>".
	Name string `json:"name,omitempty"`
	// Kind is the dataset generator: "timik", "smm", or "hubs".
	Kind string `json:"kind,omitempty"`
	// Users is N, the room population.
	Users int `json:"users,omitempty"`
	// Seed drives room generation (social graph, interests, utilities).
	Seed int64 `json:"seed,omitempty"`
	// VRFraction is the remote-user proportion (default 0.5).
	VRFraction float64 `json:"vr_fraction,omitempty"`
	// Horizon is the generator's trajectory length T. The generated
	// trajectory only seeds the room's utility structure — live serving
	// positions come from frame ingestion.
	Horizon int `json:"horizon,omitempty"`
}

// RoomInfo is the stats view of a live room.
type RoomInfo struct {
	ID         string `json:"id"`
	Users      int    `json:"users"`
	Frames     int64  `json:"frames"`
	FrameIndex int64  `json:"frame_index"`
	Repaired   int64  `json:"frames_repaired"`
	Served     int64  `json:"served"`
	Degraded   int64  `json:"degraded"`
	Sessions   int64  `json:"sessions"`
	QueueDepth int    `json:"queue_depth"`
}

// FrameAck acknowledges one ingested frame.
type FrameAck struct {
	Room     string `json:"room"`
	Index    int    `json:"index"`
	Applied  bool   `json:"applied"`
	Repaired bool   `json:"repaired"`
}

// RecResult is one served recommendation.
type RecResult struct {
	Room string `json:"room"`
	// Target is the user the rendered set is for.
	Target int `json:"target"`
	// Step is the frame index the recommendation was computed against.
	Step int `json:"step"`
	// Rendered lists the user indices displayed for the target.
	Rendered []int `json:"rendered"`
	// ServedBy names the recommender that produced the set ("hold" once a
	// session's whole fallback chain is exhausted).
	ServedBy string `json:"served_by"`
	// Fresh is false when the set came from hold-state degradation (deadline
	// miss, exhausted retries) rather than a live stepper.
	Fresh bool `json:"fresh"`
	// Fused is true when the set came out of the room's fused multi-target
	// pass rather than a solo guard step.
	Fused bool `json:"fused"`
	// BatchSize is how many requests the serving micro-batch coalesced.
	BatchSize int `json:"batch_size"`
	// QueueMs is how long the request waited for its batch, in milliseconds.
	QueueMs float64 `json:"queue_ms"`
	// RequestID is the X-Request-ID the request carried (client-supplied or
	// server-minted) — the correlation key into the wide-event access log.
	RequestID string `json:"request_id,omitempty"`
	// SpanID is the request's serve.request span in the Chrome trace, when
	// tracing was on; 0 otherwise.
	SpanID uint64 `json:"span_id,omitempty"`
}

// roomSession is the live state of one room: the generated room structure,
// the sanitized position snapshot fed by frame ingestion, the per-target
// stepper guards, and the micro-batcher that serializes stepping.
type roomSession struct {
	id   string
	srv  *Server
	room *dataset.Room

	// fmu guards the ingestion state below.
	fmu       sync.Mutex
	san       *resilience.Sanitizer
	pos       []geom.Vec2 // latest sanitized snapshot; nil before any frame
	frameIdx  int         // highest producer-claimed index applied
	haveFrame atomic.Bool

	// guards holds the per-target stepper sessions. Created and read only by
	// the batch worker goroutine (creation happens in the sequential prelude
	// of processBatch, before the parallel fan-out).
	guards map[int]*resilience.Guard

	// batch is the room's shared fused session, lazily created when the
	// primary implements sim.BatchRecommender. Like guards, it is owned by
	// the batch worker goroutine. batchPanics counts consecutive fused-pass
	// panics; past MaxRetries the fused path is written off (batchBroken)
	// and every target steps solo through its guard from then on.
	batch       sim.BatchStepper
	batchBroken bool
	batchPanics int

	// lbl carries the room's continuous-profiling labels (room id + primary
	// name). Lazily built by the batch worker on the first batch processed
	// with profiling on; nil while profiling is off (every Set no-ops).
	lbl *prof.Labels

	bat *batcher

	frames   atomic.Int64
	repaired atomic.Int64
	served   atomic.Int64
	degraded atomic.Int64
	sessions atomic.Int64
}

// CreateRoom generates a room from spec and starts its serving session.
func (s *Server) CreateRoom(spec RoomSpec) (RoomInfo, error) {
	if s.draining.Load() {
		obsShedDrain.Inc()
		return RoomInfo{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "draining")
	}
	kind := dataset.Timik
	switch spec.Kind {
	case "", "timik":
	case "smm":
		kind = dataset.SMM
	case "hubs":
		kind = dataset.Hubs
	default:
		return RoomInfo{}, &APIError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("unknown kind %q", spec.Kind)}
	}
	if spec.Users == 0 {
		spec.Users = 40
	}
	if spec.Users < 2 || spec.Users > s.cfg.MaxRoomUsers {
		return RoomInfo{}, &APIError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("users must be in [2, %d]", s.cfg.MaxRoomUsers)}
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Horizon <= 0 {
		spec.Horizon = 8
	}
	// Scale the platform graph with the room so creation stays cheap for
	// small rooms; the generator needs platform >= room.
	platform := 10 * spec.Users
	if platform < 200 {
		platform = 200
	}
	if platform > 3000 {
		platform = 3000
	}
	room, err := dataset.Generate(dataset.Config{
		Kind:          kind,
		PlatformUsers: platform,
		RoomUsers:     spec.Users,
		T:             spec.Horizon,
		VRFraction:    spec.VRFraction,
		Seed:          spec.Seed,
	})
	if err != nil {
		return RoomInfo{}, &APIError{Status: http.StatusBadRequest, Msg: err.Error()}
	}

	s.mu.Lock()
	if len(s.rooms) >= s.cfg.MaxRooms {
		s.mu.Unlock()
		return RoomInfo{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "room capacity reached")
	}
	s.roomSeq++
	id := spec.Name
	if id == "" {
		id = fmt.Sprintf("room-%d", s.roomSeq)
	}
	if _, dup := s.rooms[id]; dup {
		s.mu.Unlock()
		return RoomInfo{}, &APIError{Status: http.StatusConflict, Msg: fmt.Sprintf("room %q exists", id)}
	}
	rs := &roomSession{
		id:     id,
		srv:    s,
		room:   room,
		san:    resilience.NewSanitizer(room.N),
		guards: make(map[int]*resilience.Guard),
	}
	rs.bat = newBatcher(rs, s.cfg.RoomQueue, s.cfg.MaxBatch, s.cfg.BatchWindow)
	s.rooms[id] = rs
	obsRoomsGauge.Set(float64(len(s.rooms)))
	s.mu.Unlock()
	return rs.info(), nil
}

func (s *Server) roomByID(id string) (*roomSession, *APIError) {
	s.mu.Lock()
	rs := s.rooms[id]
	s.mu.Unlock()
	if rs == nil {
		return nil, &APIError{Status: http.StatusNotFound, Msg: fmt.Sprintf("room %q not found", id)}
	}
	return rs, nil
}

// Rooms lists the live rooms' stats.
func (s *Server) Rooms() []RoomInfo {
	s.mu.Lock()
	rooms := make([]*roomSession, 0, len(s.rooms))
	for _, rs := range s.rooms {
		rooms = append(rooms, rs)
	}
	s.mu.Unlock()
	out := make([]RoomInfo, len(rooms))
	for i, rs := range rooms {
		out[i] = rs.info()
	}
	return out
}

// RoomInfo returns one room's stats.
func (s *Server) RoomInfo(id string) (RoomInfo, error) {
	rs, aerr := s.roomByID(id)
	if aerr != nil {
		return RoomInfo{}, aerr
	}
	return rs.info(), nil
}

func (rs *roomSession) info() RoomInfo {
	rs.fmu.Lock()
	idx := rs.frameIdx
	rs.fmu.Unlock()
	return RoomInfo{
		ID:         rs.id,
		Users:      rs.room.N,
		Frames:     rs.frames.Load(),
		FrameIndex: int64(idx),
		Repaired:   rs.repaired.Load(),
		Served:     rs.served.Load(),
		Degraded:   rs.degraded.Load(),
		Sessions:   rs.sessions.Load(),
		QueueDepth: len(rs.bat.queue),
	}
}

// IngestFrame applies one raw position frame to the room: the sanitizer
// repairs NaN/short/over-long payloads into a full-length finite snapshot,
// and stale indices (duplicates, reordered arrivals) are dropped so serving
// state never regresses. Returns whether the frame was applied.
func (s *Server) IngestFrame(roomID string, index int, raw []geom.Vec2) (FrameAck, error) {
	if s.draining.Load() {
		obsShedDrain.Inc()
		return FrameAck{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "draining")
	}
	rs, aerr := s.roomByID(roomID)
	if aerr != nil {
		return FrameAck{}, aerr
	}
	ack := FrameAck{Room: roomID, Index: index}
	rs.fmu.Lock()
	if rs.pos != nil && index <= rs.frameIdx {
		rs.fmu.Unlock()
		obsFramesStale.Inc()
		return ack, nil // acknowledged, not applied
	}
	pos, repaired := rs.san.Sanitize(raw)
	rs.pos = pos
	rs.frameIdx = index
	rs.haveFrame.Store(true)
	rs.fmu.Unlock()

	ack.Applied = true
	ack.Repaired = repaired
	rs.frames.Add(1)
	obsFrames.Inc()
	if repaired {
		rs.repaired.Add(1)
		obsFramesRep.Inc()
	}
	return ack, nil
}

// Recommend runs one recommendation request through admission control and
// the room's micro-batcher, blocking until the batch worker responds or ctx
// is done. deadline <= 0 takes the server default; values above MaxDeadline
// are clamped.
//
// This is the per-request bookkeeping point: the serve.request span covers
// the whole call, the SLO tracker books the outcome, and the wide event —
// one JSONL line explaining what happened to this exact request — lands in
// the access log, whatever path (served, shed, expired, cancelled) the
// request took.
func (s *Server) Recommend(ctx context.Context, roomID string, target int, deadline time.Duration) (RecResult, error) {
	start := time.Now()
	reqID := RequestIDFrom(ctx)
	if reqID == "" {
		// Direct API callers (tests, embedders) skip the HTTP middleware;
		// mint here so every wide event has a correlation key.
		reqID = newRequestID()
	}
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	sp := obs.Begin("serve.request")
	res, err := s.recommend(ctx, start, sp.ID(), roomID, target, deadline)
	sp.End()
	if err == nil {
		res.RequestID = reqID
		res.SpanID = uint64(sp.ID())
	}
	s.finishRequest(start, deadline, reqID, uint64(sp.ID()), roomID, target, res, err)
	return res, err
}

// recommend is Recommend's admission + wait body, separated so the wrapper
// can bracket it with the request span and book the outcome exactly once.
func (s *Server) recommend(ctx context.Context, start time.Time, spanID obs.SpanID, roomID string, target int, deadline time.Duration) (RecResult, error) {
	if s.draining.Load() {
		obsShedDrain.Inc()
		return RecResult{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "draining")
	}
	rs, aerr := s.roomByID(roomID)
	if aerr != nil {
		return RecResult{}, aerr
	}
	if target < 0 || target >= rs.room.N {
		return RecResult{}, &APIError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("target %d out of range [0, %d)", target, rs.room.N)}
	}
	if !rs.haveFrame.Load() {
		return RecResult{}, &APIError{Status: http.StatusConflict, Msg: "room has no frames yet; POST positions first"}
	}

	// Admission: global bound first (503 — the process is overloaded), then
	// the room queue (429 — this room is hot; the client should back off).
	if int(s.queued.Load()) >= s.cfg.GlobalQueue {
		obsShedGlobal.Inc()
		return RecResult{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "global queue full")
	}
	p := &pending{
		target:   target,
		deadline: start.Add(deadline),
		enq:      start,
		id:       RequestIDFrom(ctx),
		spanID:   spanID,
		qsp:      obs.BeginChild("serve.queue", spanID),
		resc:     make(chan outcome, 1),
	}
	s.queued.Add(1)
	obsQueueGauge.Set(float64(s.queued.Load()))
	if !rs.bat.enqueue(p) {
		p.qsp.End()
		s.queued.Add(-1)
		if s.draining.Load() {
			obsShedDrain.Inc()
			return RecResult{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "draining")
		}
		obsShedRoom.Inc()
		return RecResult{}, shedErr(http.StatusTooManyRequests, s.cfg.RetryAfter, "room queue full")
	}

	select {
	case out := <-p.resc:
		if out.err != nil {
			return RecResult{}, out.err
		}
		obsE2E.Observe(time.Since(start))
		return out.rec, nil
	case <-ctx.Done():
		// The caller vanished; the batch worker will still process p and
		// drop the outcome into the buffered channel.
		return RecResult{}, &APIError{Status: http.StatusServiceUnavailable, Msg: "client cancelled"}
	}
}

// wideEvent is one access-log record: the full story of a single request on
// one JSONL line.
type wideEvent struct {
	TS         string  `json:"ts"`
	RequestID  string  `json:"request_id"`
	Room       string  `json:"room"`
	Target     int     `json:"target"`
	Status     int     `json:"status"`
	ShedReason string  `json:"shed_reason,omitempty"`
	Error      string  `json:"error,omitempty"`
	ServedBy   string  `json:"served_by,omitempty"`
	Fresh      bool    `json:"fresh"`
	Fused      bool    `json:"fused"`
	F32        bool    `json:"f32"`
	Step       int     `json:"step,omitempty"`
	BatchSize  int     `json:"batch_size,omitempty"`
	QueueMs    float64 `json:"queue_ms,omitempty"`
	DeadlineMs float64 `json:"deadline_ms"`
	SpentMs    float64 `json:"spent_ms"`
	SpanID     uint64  `json:"span_id,omitempty"`
}

// finishRequest books one finished request into the SLO tracker and the
// wide-event access log.
func (s *Server) finishRequest(start time.Time, deadline time.Duration, reqID string, spanID uint64, roomID string, target int, res RecResult, err error) {
	spent := time.Since(start)
	status := http.StatusOK
	var ae *APIError
	if err != nil {
		var ok bool
		if ae, ok = err.(*APIError); !ok {
			status = http.StatusInternalServerError
		} else {
			status = ae.Status
		}
	}
	// SLO accounting: sheds (429/503) and server errors burn budget, as do
	// degraded (stale) serves — the client got something, but not the fresh
	// set the objective promises. Pure client errors (bad target, unknown
	// room) are not the server's failure and stay out of the budget.
	switch {
	case err == nil:
		s.slo.Record(res.Fresh)
	case status >= 500 || status == http.StatusTooManyRequests:
		s.slo.Record(false)
	}
	if s.cfg.AccessLog == nil {
		return
	}
	ev := wideEvent{
		TS:         start.UTC().Format(time.RFC3339Nano),
		RequestID:  reqID,
		Room:       roomID,
		Target:     target,
		Status:     status,
		Fresh:      err == nil && res.Fresh,
		Fused:      res.Fused,
		F32:        s.cfg.Float32,
		Step:       res.Step,
		ServedBy:   res.ServedBy,
		BatchSize:  res.BatchSize,
		QueueMs:    res.QueueMs,
		DeadlineMs: float64(deadline) / float64(time.Millisecond),
		SpentMs:    float64(spent) / float64(time.Millisecond),
		SpanID:     spanID,
	}
	if ae != nil {
		ev.Error = ae.Msg
		if ae.RetryAfter > 0 {
			ev.ShedReason = ae.Msg
		}
	} else if err != nil {
		ev.Error = err.Error()
	}
	// Tail sampling: every shed, error, degraded serve, or request that
	// burned ≥80% of its deadline budget is kept; the healthy bulk is
	// down-sampled by the writer.
	keep := err != nil || !res.Fresh || spent*5 >= deadline*4
	s.cfg.AccessLog.Log(ev, keep)
}

// processBatch serves one coalesced batch: shed requests that expired in the
// queue, group the rest by target, step the distinct targets, and respond to
// every member.
//
// When the primary implements sim.BatchRecommender, every session still on
// the primary steps through ONE fused StepTargets call on the room's shared
// batch session — the whole room pays one forward pass per micro-batch
// instead of one per distinct target. Duplicate targets coalesce into a
// single column: grouping happens before the fused call, so K requests for
// the same target cost exactly one column and receive identical results.
// Demoted sessions (and every session when the primary cannot batch) keep
// the previous behavior: each distinct target steps solo through its
// resilience.Guard with the group's tightest remaining budget, fanned out
// over the worker pool.
//
// Batching preserves per-request semantics exactly: each target appears at
// most once per pass, distinct targets are independent recurrent states
// inside the shared session, and the fused outputs are bit-identical to
// stepping the same requests one at a time (tested in batcher_test.go).
// If a fused pass panics, its members fall back to their solo guards for
// that frame and the shared session is rebuilt; MaxRetries consecutive
// fused panics write the fused path off for the room. If a fused pass
// misses the group deadline, members serve their hold state — exactly what
// a solo deadline miss produces — and an abandoned straggler (still running
// past the grace period) permanently retires the fused path, since its
// session can never be reused safely.
func (rs *roomSession) processBatch(batch []*pending) {
	obsBatches.Inc()
	obsBatchedReqs.Add(int64(len(batch)))
	now := time.Now()

	// The batch span is the cross-goroutine join point: it runs on the
	// worker, and LinkFrom ties it back to every member request span so the
	// exported trace shows which N requests one coalesced pass served.
	bsp := obs.Begin("serve.batch")
	defer bsp.End()

	// Label the worker goroutine with this room's (room, rec) pair for the
	// continuous profiler. Both the fused pass (run inline or in fusedStep's
	// deadline goroutine) and the solo fan-out inherit these at spawn; the
	// core session's own phase switches refine them via prof.Carrier below.
	if prof.On() && rs.lbl == nil {
		rs.lbl = prof.NewLabels(rs.id, rs.srv.cfg.Primary.Name())
	}
	rs.lbl.Set(prof.PhaseBatch)
	defer prof.Clear()

	rs.fmu.Lock()
	pos := rs.pos
	step := rs.frameIdx
	rs.fmu.Unlock()

	// Shed members whose whole budget burned in the queue: an honest 503
	// now beats a result the client has already abandoned.
	live := make([]*pending, 0, len(batch))
	for _, p := range batch {
		p.qsp.End() // queue wait is over either way
		obsQueueWait.Observe(now.Sub(p.enq))
		if !p.deadline.IsZero() && !now.Before(p.deadline) {
			obsExpired.Inc()
			p.resc <- outcome{err: shedErr(http.StatusServiceUnavailable, rs.srv.cfg.RetryAfter, "deadline expired in queue")}
			continue
		}
		bsp.LinkFrom(p.spanID)
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	if pos == nil {
		// Room existed but lost its frame state — cannot happen today
		// (haveFrame gates admission), kept as a defensive response.
		for _, p := range live {
			p.resc <- outcome{err: &APIError{Status: http.StatusConflict, Msg: "room has no frames"}}
		}
		return
	}

	// Group by target, preserving first-appearance order; each group steps
	// once under the tightest member deadline.
	order := make([]int, 0, len(live))
	groups := make(map[int][]*pending, len(live))
	for _, p := range live {
		if _, seen := groups[p.target]; !seen {
			order = append(order, p.target)
		}
		groups[p.target] = append(groups[p.target], p)
	}
	// Create missing guards sequentially: the guards map is single-writer
	// (this worker goroutine) and must not be touched inside the fan-out.
	gs := make([]*resilience.Guard, len(order))
	for i, target := range order {
		g := rs.guards[target]
		if g == nil {
			g = resilience.NewGuard(rs.srv.cfg.Primary, rs.room, target, rs.srv.cfg.guardConfig())
			rs.guards[target] = g
			rs.sessions.Add(1)
		}
		gs[i] = g
	}

	batchSize := len(batch)
	// The group's effective budget is its tightest member's remaining time;
	// zero deadlines (unbounded) only occur all-together.
	groupBudget := func(group []*pending) time.Duration {
		var budget time.Duration
		for _, p := range group {
			if p.deadline.IsZero() {
				continue
			}
			rem := p.deadline.Sub(now)
			if budget == 0 || rem < budget {
				budget = rem
			}
		}
		return budget
	}
	respond := func(i int, rendered []bool, fresh, fused bool) {
		target := order[i]
		group := groups[target]
		shown := make([]int, 0, len(rendered))
		for w, on := range rendered {
			if on {
				shown = append(shown, w)
			}
		}
		servedBy := gs[i].ServedBy()
		rs.served.Add(int64(len(group)))
		obsAccepted.Add(int64(len(group)))
		if !fresh {
			rs.degraded.Add(int64(len(group)))
			obsDegraded.Add(int64(len(group)))
		}
		if servedBy != rs.srv.cfg.Primary.Name() {
			obsFallback.Add(int64(len(group)))
		}
		for _, p := range group {
			p.resc <- outcome{rec: RecResult{
				Room:      rs.id,
				Target:    target,
				Step:      step,
				Rendered:  shown,
				ServedBy:  servedBy,
				Fresh:     fresh,
				Fused:     fused,
				BatchSize: batchSize,
				QueueMs:   float64(now.Sub(p.enq)) / float64(time.Millisecond),
			}}
		}
	}

	// Partition the distinct targets: fused (still on the primary, which can
	// batch) vs solo (demoted, or no batch support at all).
	solo := make([]int, 0, len(order))
	var fused []int
	if rs.batchStepper() != nil {
		for i := range order {
			if gs[i].OnPrimary() {
				fused = append(fused, i)
			} else {
				solo = append(solo, i)
			}
		}
	} else {
		for i := range order {
			solo = append(solo, i)
		}
	}

	if len(fused) > 0 {
		targets := make([]int, len(fused))
		frames := make([]*occlusion.StaticGraph, len(fused))
		parallel.ForEach(len(fused), func(j int) {
			targets[j] = order[fused[j]]
			frames[j] = occlusion.BuildStatic(targets[j], pos, rs.room.AvatarRadius)
		})
		// The fused pass runs under the tightest budget of any member it
		// serves: one shared forward cannot outlive its most impatient
		// request.
		var budget time.Duration
		for _, i := range fused {
			if b := groupBudget(groups[order[i]]); b > 0 && (budget == 0 || b < budget) {
				budget = b
			}
		}
		// Parent the fused session's batch.step (and its mia/pdr/lwp/decode
		// phase spans) under this batch span, tying the core forward pass
		// into the request trace.
		if tc, ok := rs.batch.(sim.TraceCarrier); ok {
			tc.SetTraceParent(bsp.ID())
		}
		if pc, ok := rs.batch.(prof.Carrier); ok {
			pc.SetProfLabels(rs.lbl)
		}
		stepStart := time.Now()
		outs, soloFallback := rs.fusedStep(step, targets, frames, budget)
		obsStepLat.Observe(time.Since(stepStart))
		switch {
		case outs != nil:
			rs.batchPanics = 0
			obsFusedPasses.Inc()
			obsFusedTargets.Add(int64(len(fused)))
			for j, i := range fused {
				rendered, fresh := gs[i].AcceptFresh(outs[j])
				respond(i, rendered, fresh, true)
			}
		case soloFallback:
			// The pass panicked: this frame's members step solo through
			// their own guards, which have the full retry/demote machinery.
			solo = append(solo, fused...)
		default:
			// Deadline miss: every member serves stale, like a solo miss.
			for _, i := range fused {
				respond(i, gs[i].Hold(), false, true)
			}
		}
	}

	parallel.ForEach(len(solo), func(j int) {
		i := solo[j]
		target := order[i]
		budget := groupBudget(groups[target])
		gs[i].SetTraceParent(bsp.ID())
		gs[i].SetProfLabels(rs.lbl)
		stepStart := time.Now()
		frame := occlusion.BuildStatic(target, pos, rs.room.AvatarRadius)
		rendered, fresh := gs[i].Step(step, frame, budget)
		obsStepLat.Observe(time.Since(stepStart))
		respond(i, rendered, fresh, false)
	})
}

// batchStepper returns the room's shared fused session, lazily starting it
// on first use, or nil when the primary cannot batch or the fused path has
// been written off. Worker-goroutine only.
func (rs *roomSession) batchStepper() sim.BatchStepper {
	if rs.batchBroken {
		return nil
	}
	if rs.batch == nil {
		br, ok := rs.srv.cfg.Primary.(sim.BatchRecommender)
		if !ok {
			rs.batchBroken = true
			return nil
		}
		rs.batch = br.StartBatch(rs.room)
	}
	return rs.batch
}

// fusedStep runs one fused StepTargets call through resilience.Race under
// the supplied deadline (<= 0 means unbounded, inline) and the guards'
// straggler grace. outs == nil means the pass produced nothing: soloFallback
// true directs the members to their solo guards for this frame (the pass
// panicked, so its session state is suspect and is rebuilt fresh for the
// next batch); false means serve stale (the pass missed its deadline).
func (rs *roomSession) fusedStep(t int, targets []int, frames []*occlusion.StaticGraph, dl time.Duration) (outs [][]bool, soloFallback bool) {
	bs := rs.batch
	outs, outcome := resilience.Race(rs.srv.cfg.guardConfig(), dl, func() [][]bool {
		res := bs.StepTargets(t, targets, frames)
		if len(res) != len(targets) {
			// A malformed fused result is as bad as a panic: discard it and
			// let the solo guards validate their own outputs.
			panic("serve: malformed fused result")
		}
		return res
	})
	switch outcome {
	case resilience.RaceOK:
		return outs, false
	case resilience.RacePanicked:
		rs.noteBatchPanic()
		return nil, true
	case resilience.RaceLatePanic:
		// A late completion's results are stale and discarded, exactly like
		// a solo late step; a late panic still counts against the path.
		rs.noteBatchPanic()
	case resilience.RaceAbandoned:
		// Straggler abandoned mid-call: the goroutine still owns the shared
		// session (it would deadlock or corrupt a reuse), so the fused path
		// retires permanently for this room.
		rs.batch = nil
		rs.batchBroken = true
	}
	return nil, false
}

// noteBatchPanic books one fused-pass panic: the shared session is rebuilt
// fresh for the next batch, and MaxRetries consecutive panics retire the
// fused path for good (a success resets the count).
func (rs *roomSession) noteBatchPanic() {
	rs.batchPanics++
	rs.batch = nil
	if rs.batchPanics > rs.srv.cfg.MaxRetries {
		rs.batchBroken = true
	}
}
