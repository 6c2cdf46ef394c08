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
	"after/internal/resilience"
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
	// Horizon is the generator's trajectory length T (default 8, at most
	// dataset.DefaultT). The generated trajectory only seeds the room's
	// utility structure — live serving positions come from frame ingestion.
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
// the sanitized position snapshot fed by frame ingestion, the room's
// protected stepper, and the micro-batcher that serializes stepping.
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

	// stepper owns the per-target guards, the shared fused session and its
	// failure policy. Only the batch worker goroutine steps it.
	stepper *resilience.Room

	// lbl carries the room's continuous-profiling labels (room id + primary
	// name). Lazily built by the batch worker on the first batch processed
	// with profiling on; nil while profiling is off (every Set no-ops).
	lbl *prof.Labels

	bat *batcher

	frames   atomic.Int64
	repaired atomic.Int64
	served   atomic.Int64
	degraded atomic.Int64
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
	// Generation cost grows linearly with the horizon; the paper's T bounds it.
	if spec.Horizon > dataset.DefaultT {
		return RoomInfo{}, &APIError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("horizon must be at most %d", dataset.DefaultT)}
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
		id:      id,
		srv:     s,
		room:    room,
		san:     resilience.NewSanitizer(room.N),
		stepper: resilience.NewRoom(s.cfg.Primary, room, s.cfg.guardConfig()),
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
		Sessions:   rs.stepper.Sessions(),
		QueueDepth: len(rs.bat.queue),
	}
}

// IngestFrame applies one raw position frame to the room: the sanitizer
// repairs NaN/short/over-long payloads into a full-length finite snapshot,
// and stale indices (duplicates, reordered arrivals) are dropped so serving
// state never regresses. A negative index is rejected. Returns whether the
// frame was applied.
func (s *Server) IngestFrame(roomID string, index int, raw []geom.Vec2) (FrameAck, error) {
	if s.draining.Load() {
		obsShedDrain.Inc()
		return FrameAck{}, shedErr(http.StatusServiceUnavailable, s.cfg.RetryAfter, "draining")
	}
	rs, aerr := s.roomByID(roomID)
	if aerr != nil {
		return FrameAck{}, aerr
	}
	if index < 0 {
		return FrameAck{}, &APIError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("frame index %d is negative", index)}
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

	// A caller that has already left gets no queue slot: its target would
	// be stepped and booked as served for no one.
	if ctx.Err() != nil {
		return RecResult{}, &APIError{Status: http.StatusServiceUnavailable, Msg: "client cancelled"}
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
// queue, group the rest by target, step every distinct target on the current
// snapshot in one call to the room's resilience.Room, and answer each
// target's members as soon as its set is ready.
//
// Duplicate targets coalesce: grouping happens before the step, so K
// requests for the same target cost one step (one fused column) and receive
// identical results. Each target steps under its tightest member's
// remaining budget. The Room decides which targets share the fused pass and
// how a failing pass degrades. Batching preserves per-request semantics
// exactly: distinct targets are independent recurrent states, and the
// outputs are bit-identical to stepping the same requests one at a time
// (tested in batcher_test.go and fused_test.go).
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
	// continuous profiler. The frame conversion, the fused pass and the solo
	// steps inherit these at spawn; the Room hands the same labels to the
	// sessions, whose phase switches refine them.
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

	// Group by target, preserving first-appearance order. A group's budget
	// is its tightest member's remaining time; zero deadlines (unbounded)
	// only occur all together.
	order := make([]int, 0, len(live))
	groups := make(map[int][]*pending, len(live))
	for _, p := range live {
		if _, seen := groups[p.target]; !seen {
			order = append(order, p.target)
		}
		groups[p.target] = append(groups[p.target], p)
	}
	budgets := make([]time.Duration, len(order))
	for i, target := range order {
		for _, p := range groups[target] {
			if rem := p.deadline.Sub(now); !p.deadline.IsZero() && (budgets[i] == 0 || rem < budgets[i]) {
				budgets[i] = rem
			}
		}
	}
	// The Room calls back from its solo fan-out concurrently; every counter
	// booked here is atomic and each member owns its reply channel.
	stepStart := time.Now()
	fused := rs.stepper.Step(step, order, pos, budgets, bsp.ID(), rs.lbl, func(i int, res resilience.Result) {
		target := order[i]
		group := groups[target]
		shown := make([]int, 0, len(res.Rendered))
		for w, on := range res.Rendered {
			if on {
				shown = append(shown, w)
			}
		}
		rs.served.Add(int64(len(group)))
		obsAccepted.Add(int64(len(group)))
		if !res.Fresh {
			rs.degraded.Add(int64(len(group)))
			obsDegraded.Add(int64(len(group)))
		}
		if res.ServedBy != rs.srv.cfg.Primary.Name() {
			obsFallback.Add(int64(len(group)))
		}
		for _, p := range group {
			p.resc <- outcome{rec: RecResult{
				Room:      rs.id,
				Target:    target,
				Step:      step,
				Rendered:  shown,
				ServedBy:  res.ServedBy,
				Fresh:     res.Fresh,
				Fused:     res.Fused,
				BatchSize: len(batch),
				QueueMs:   float64(now.Sub(p.enq)) / float64(time.Millisecond),
			}}
		}
	})
	obsStepLat.Observe(time.Since(stepStart))
	if fused > 0 {
		obsFusedPasses.Inc()
		obsFusedTargets.Add(int64(fused))
	}
}
