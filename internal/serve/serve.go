// Package serve is the online serving layer behind cmd/afterd: a
// long-running HTTP recommendation service with per-room session state.
// Frame ingestion updates a room's sanitized position snapshot (the live
// occlusion-graph input); recommendation requests reach the room's
// resilience.Room through a kserve-style micro-batcher that coalesces
// concurrent requests from the same room into one step call under a
// max-batch-size + max-latency window.
//
// The headline is overload and failure behaviour, not the happy path:
//
//   - admission control — bounded per-room and global queues plus a
//     process-wide batch-concurrency limit sized off internal/parallel.
//     Once queues fill, requests are shed explicitly with 429 (hot room) or
//     503 (global overload / draining), always with a Retry-After hint,
//     instead of queueing without bound until latency collapses;
//   - deadline propagation — every request carries a deadline (default or
//     client-set); time spent queueing is charged against it, requests that
//     expire in the queue are shed, and the remaining budget is propagated
//     into the room's resilience.Room, which protects the fused pass and
//     every per-target step, so a slow or panicking stepper degrades down
//     the POSHGNN → Nearest → hold chain inside the budget instead of
//     stalling the room;
//   - graceful drain — Drain stops admissions, flushes every in-flight
//     batch so no accepted request is abandoned, snapshots OBS/QUALITY
//     artifacts, and only then tears down the listener.
//
// Everything records into internal/obs (queue-depth gauges, admission and
// end-to-end latency histograms, shed counters), so the live debug endpoint
// and the drain-time snapshots show exactly what the daemon did under load.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/baselines"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/obs/slo"
	"after/internal/obs/wide"
	"after/internal/parallel"
	"after/internal/resilience"
	"after/internal/sim"
)

// Package-level obs handles (cached across registry resets, no-ops while
// obs is disabled), mirroring the idiom of every instrumented package.
var (
	obsAccepted     = obs.Default().Counter("serve.accepted")
	obsDegraded     = obs.Default().Counter("serve.degraded")
	obsFallback     = obs.Default().Counter("serve.fallback_served")
	obsShedRoom     = obs.Default().Counter("serve.shed_room_queue")
	obsShedGlobal   = obs.Default().Counter("serve.shed_global_queue")
	obsShedDrain    = obs.Default().Counter("serve.shed_draining")
	obsExpired      = obs.Default().Counter("serve.expired_in_queue")
	obsFrames       = obs.Default().Counter("serve.frames")
	obsFramesRep    = obs.Default().Counter("serve.frames_repaired")
	obsFramesStale  = obs.Default().Counter("serve.frames_stale")
	obsBatches      = obs.Default().Counter("serve.batches")
	obsBatchedReqs  = obs.Default().Counter("serve.batched_requests")
	obsFusedPasses  = obs.Default().Counter("serve.fused_passes")
	obsFusedTargets = obs.Default().Counter("serve.fused_targets")
	obsRoomsGauge   = obs.Default().Gauge("serve.rooms")
	obsQueueGauge   = obs.Default().Gauge("serve.queue_depth")
	obsDrainGauge   = obs.Default().Gauge("serve.draining")
	obsQueueWait    = obs.Default().Histogram("serve.queue_wait")
	obsStepLat      = obs.Default().Histogram("serve.step")
	obsE2E          = obs.Default().Histogram("serve.e2e")
)

// Config tunes the serving daemon. The zero value of every field takes the
// documented default; Primary is the only required field.
type Config struct {
	// Primary is the recommender serving fresh steps (required).
	Primary sim.Recommender
	// Fallbacks is the demotion chain behind Primary; nil defaults to
	// [Nearest] (hold-last-set is always the implicit terminal fallback).
	Fallbacks []sim.Recommender

	// DefaultDeadline is the per-request budget when the client sends none
	// (default 50ms). MaxDeadline caps client-requested budgets (default 1s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxBatch caps how many requests one micro-batch coalesces (default
	// 16); BatchWindow is the max-latency window a batch waits to fill
	// (default 2ms).
	MaxBatch    int
	BatchWindow time.Duration

	// RoomQueue bounds each room's pending-request queue (default 64);
	// filling it sheds with 429. GlobalQueue bounds queued requests across
	// all rooms (default 1024); filling it sheds with 503.
	RoomQueue   int
	GlobalQueue int

	// Concurrency bounds how many room batches process at once (default
	// parallel.Limit(), i.e. the worker-pool width).
	Concurrency int

	// MaxRooms and MaxRoomUsers bound session state (defaults 256 rooms,
	// 2000 users).
	MaxRooms     int
	MaxRoomUsers int

	// MaxRetries/RetryBackoff/AbandonAfter tune each room's
	// resilience.Room. AbandonAfter defaults to 1.5× DefaultDeadline so a
	// straggling step is cut loose quickly instead of the episode runner's
	// leisurely 10× grace.
	MaxRetries   int
	RetryBackoff time.Duration
	AbandonAfter time.Duration

	// RetryAfter is the backoff hint attached to shed responses (default 1s).
	RetryAfter time.Duration

	// SnapshotDir, when non-empty, is where Drain writes OBS_serve.json and
	// QUALITY_serve.json before the listener dies.
	SnapshotDir string

	// AccessLog, when non-nil, receives one wide event per request (tail
	// sampled: sheds/degraded/deadline-blown/slow requests always, 1-in-N of
	// the healthy rest). The server owns it from here on: Drain closes it
	// (flush + fsync) after the last in-flight batch responds.
	AccessLog *wide.Writer

	// Float32 marks the primary as the f32 inference fast path; it only
	// annotates wide events so a log reader can split f32/f64 populations.
	Float32 bool

	// SLOObjective is the availability objective the error-budget tracker
	// burns against (default 0.99). A request counts against the budget when
	// it is shed (429/503), errors server-side, or serves a stale
	// (degraded/hold) set.
	SLOObjective float64

	// Watchdog, when non-nil, is armed around every micro-batch the room
	// workers process: a batch still running after Multiple× the server's
	// AbandonAfter grace is a stall, and the watchdog dumps an incident
	// bundle (goroutines, a CPU profile, recent wide events). Nil
	// disables stall detection at zero cost.
	Watchdog *prof.Watchdog

	// Profiler, when non-nil, is the continuous profiler whose live window
	// Drain cuts and writes as cpu_serve.pb.gz into SnapshotDir alongside
	// the OBS artifact.
	Profiler *prof.Profiler

	// Clock overrides wall time in the guards' retry path (tests).
	Clock resilience.Clock
}

func (c Config) withDefaults() Config {
	if c.Fallbacks == nil {
		c.Fallbacks = []sim.Recommender{baselines.Nearest{}}
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 50 * time.Millisecond
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.RoomQueue <= 0 {
		c.RoomQueue = 64
	}
	if c.GlobalQueue <= 0 {
		c.GlobalQueue = 1024
	}
	if c.Concurrency <= 0 {
		c.Concurrency = parallel.Limit()
	}
	if c.MaxRooms <= 0 {
		c.MaxRooms = 256
	}
	if c.MaxRoomUsers <= 0 {
		c.MaxRoomUsers = 2000
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 200 * time.Microsecond
	}
	if c.AbandonAfter <= 0 {
		c.AbandonAfter = c.DefaultDeadline + c.DefaultDeadline/2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.99
	}
	return c
}

// guardConfig is the per-room resilience configuration derived from the
// server config. StepDeadline stays zero: the serving path propagates each
// request's remaining budget per call instead of pinning one global value.
func (c Config) guardConfig() resilience.Config {
	return resilience.Config{
		MaxRetries:   c.MaxRetries,
		RetryBackoff: c.RetryBackoff,
		AbandonAfter: c.AbandonAfter,
		Fallbacks:    c.Fallbacks,
		Clock:        c.Clock,
	}
}

// APIError is the typed error every serving entry point returns for
// client-visible failures. RetryAfter > 0 marks a load-shedding response
// (429/503) whose HTTP rendering carries a Retry-After header.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string { return e.Msg }

func shedErr(status int, retryAfter time.Duration, msg string) *APIError {
	return &APIError{Status: status, Msg: msg, RetryAfter: retryAfter}
}

// Server is one serving daemon instance: a registry of live room sessions
// plus the admission state shared across them. Create one with New, expose
// it with Start (or mount Handler on your own listener), stop it with Drain.
type Server struct {
	cfg Config
	slo *slo.Tracker

	draining atomic.Bool
	queued   atomic.Int64 // requests sitting in room queues, all rooms
	procSem  chan struct{}

	mu      sync.Mutex
	rooms   map[string]*roomSession
	roomSeq int

	ln         net.Listener
	httpSrv    *http.Server
	servedDone chan struct{}
}

// New builds a Server from cfg. Panics if cfg.Primary is nil — a serving
// daemon without a recommender is a programming error, not a runtime state.
func New(cfg Config) *Server {
	if cfg.Primary == nil {
		panic("serve: Config.Primary is required")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		slo:     slo.New(slo.Config{Name: "serve", Objective: cfg.SLOObjective}),
		procSem: make(chan struct{}, cfg.Concurrency),
		rooms:   make(map[string]*roomSession),
	}
}

// Config returns the normalized configuration the server runs with.
func (s *Server) Config() Config { return s.cfg }

// SLO returns the server's error-budget tracker (never nil after New); its
// Handler backs the /slo endpoint and its Snapshot syncs the slo.serve.*
// gauges into the default registry.
func (s *Server) SLO() *slo.Tracker { return s.slo }

// QueueDepth returns the number of requests currently queued across all
// rooms.
func (s *Server) QueueDepth() int { return int(s.queued.Load()) }

// Start binds addr (e.g. ":8080" or "127.0.0.1:0") and serves the HTTP API
// in a background goroutine, returning the bound address. Binding errors
// surface synchronously.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.servedDone = make(chan struct{})
	go func() {
		defer close(s.servedDone)
		// ErrServerClosed is the normal drain path.
		_ = s.httpSrv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address (useful with ":0" in tests); empty before
// Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain performs the graceful SIGTERM sequence:
//
//  1. stop admissions — every subsequent request (and room creation) sheds
//     with 503 + Retry-After, /readyz flips to 503;
//  2. flush — each room's batcher intake closes and its worker drains the
//     queued requests to completion, so every request admitted before the
//     drain gets a real response (possibly an expired-in-queue shed, never
//     silence);
//  3. snapshot — the SLO gauges sync into the registry, the access log (if
//     configured) gets its final flush + fsync + close, and OBS_serve.json /
//     QUALITY_serve.json are written atomically (fsync + rename) into
//     SnapshotDir, if configured;
//  4. teardown — the HTTP listener shuts down gracefully.
//
// Drain is idempotent; concurrent calls beyond the first return
// immediately. ctx bounds the flush and teardown.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	obsDrainGauge.Set(1)
	s.mu.Lock()
	rooms := make([]*roomSession, 0, len(s.rooms))
	for _, rs := range s.rooms {
		rooms = append(rooms, rs)
	}
	s.mu.Unlock()
	for _, rs := range rooms {
		rs.bat.closeIntake()
	}
	var flushErr error
	for _, rs := range rooms {
		select {
		case <-rs.bat.done:
		case <-ctx.Done():
			flushErr = fmt.Errorf("serve: drain: flush of room %s: %w", rs.id, ctx.Err())
		}
		if flushErr != nil {
			break
		}
	}
	// Final burn-rate evaluation so the drain snapshot's slo.serve.* gauges
	// reflect the whole run.
	s.slo.Snapshot()
	if err := s.snapshot(); err != nil && flushErr == nil {
		flushErr = err
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			// Deadline expired with connections still open: hard-close so
			// the serve goroutine is still collected deterministically.
			_ = s.httpSrv.Close()
			if flushErr == nil {
				flushErr = fmt.Errorf("serve: drain: %w", err)
			}
		}
		<-s.servedDone
	}
	// Access log last — only after the HTTP shutdown have all in-flight
	// handlers emitted their wide events, so this Close (flush + fsync) is
	// the atomic final flush: nothing the daemon responded to is missing
	// from disk.
	if err := s.cfg.AccessLog.Close(); err != nil && flushErr == nil {
		flushErr = fmt.Errorf("serve: drain: access log: %w", err)
	}
	return flushErr
}

// Close is the non-graceful stop: admissions halt, batchers flush (their
// queued work is small and bounded), and the listener is closed immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// snapshot writes the drain-time OBS/QUALITY artifacts (plus cpu_serve.pb.gz
// when a continuous profiler is attached).
func (s *Server) snapshot() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	// Refresh the runtime-health gauges (GC pauses, heap live/goal,
	// goroutines, scheduler latency) so the OBS snapshot reflects the
	// process state at drain, not the last collector tick.
	prof.CollectHealth(nil)
	if err := obs.Default().WriteJSON(filepath.Join(s.cfg.SnapshotDir, "OBS_serve.json")); err != nil {
		return fmt.Errorf("serve: drain snapshot: %w", err)
	}
	if err := quality.Default().WriteJSON(filepath.Join(s.cfg.SnapshotDir, "QUALITY_serve.json")); err != nil {
		return fmt.Errorf("serve: drain snapshot: %w", err)
	}
	if s.cfg.Profiler != nil {
		// Best-effort: a skipped window (profile slot owned elsewhere) has
		// nothing to write.
		s.cfg.Profiler.Rotate()
		_ = s.cfg.Profiler.WriteLastProfile(filepath.Join(s.cfg.SnapshotDir, "cpu_serve.pb.gz"))
	}
	return nil
}

// retryAfterSeconds renders a Retry-After hint in whole seconds (minimum 1,
// per RFC 9110 the header carries integral seconds).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
