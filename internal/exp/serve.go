package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"after/internal/baselines"
	"after/internal/chaos"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/serve"
	"after/internal/serve/load"
	"after/internal/sim"
)

// ServePrimary trains the quick single-candidate POSHGNN the serving daemon
// boots with: model selection belongs to the offline experiments, so the
// daemon (and the serve sweep) reuses the chaos sweep's small grid.
func ServePrimary(o Options) (sim.Recommender, error) {
	return servePrimary(o, false)
}

// ServePrimaryF32 is ServePrimary with the float32 inference fast path
// selected for serving. Training is unchanged (float64; the weights are the
// same bits either way) — only the per-step forward pass runs in float32,
// within the tolerance documented in internal/core's f32 property tests.
func ServePrimaryF32(o Options) (sim.Recommender, error) {
	return servePrimary(o, true)
}

func servePrimary(o Options, f32 bool) (sim.Recommender, error) {
	o = o.withDefaults()
	cfg := dataset.Config{
		Kind:          dataset.Timik,
		Seed:          4200 + o.Seed,
		RoomUsers:     o.scaleInt(80, 20),
		PlatformUsers: o.scaleInt(1200, 200),
		T:             o.scaleInt(60, 20),
	}
	rooms, err := dataset.GenerateRooms(cfg, 2)
	if err != nil {
		return nil, err
	}
	posh, err := TrainPOSHGNN(core.Config{UseMIA: true, UseLWP: true},
		episodesFrom(rooms[:1], 3), rooms[1], o.chaosSpec())
	if err != nil {
		return nil, err
	}
	if f32 {
		return POSHGNNRecF32(posh, "POSHGNN"), nil
	}
	return POSHGNNRec(posh, "POSHGNN"), nil
}

// ServeRow is one load-pattern measurement against the in-process daemon.
type ServeRow struct {
	Pattern    string  `json:"pattern"`
	OfferedRPS float64 `json:"offered_rps"`
	// Overload marks rows offered beyond measured capacity: these MUST shed.
	Overload  bool    `json:"overload"`
	ChaosRate float64 `json:"chaos_rate"`

	Sent     int64 `json:"sent"`
	Accepted int64 `json:"accepted"`
	Shed429  int64 `json:"shed_429"`
	Shed503  int64 `json:"shed_503"`
	Errors   int64 `json:"errors"`
	// MissingRetryAfter must be zero: every shed carries the header.
	MissingRetryAfter int64 `json:"missing_retry_after"`

	ShedRate      float64 `json:"shed_rate"`
	AcceptedP50Ms float64 `json:"accepted_p50_ms"`
	AcceptedP99Ms float64 `json:"accepted_p99_ms"`
	AcceptedMaxMs float64 `json:"accepted_max_ms"`
	// DegradedRate is the hold-state fraction of accepted responses;
	// FallbackShare is the fraction not served by the primary.
	DegradedRate  float64 `json:"degraded_rate"`
	FallbackShare float64 `json:"fallback_share"`
	Violations    int64   `json:"violations"`

	// Server-side error-budget accounting for this row alone (the tracker is
	// reset between rows): good/bad request counts under the availability
	// objective, the 5m/1h burn rates at row end, the fraction of the row's
	// error budget consumed, and whether the multi-window burn alerts fired.
	// The fixed-rate row's SLOFastBurn is a CI gate — see .github/workflows.
	SLOGood           int64   `json:"slo_good"`
	SLOBad            int64   `json:"slo_bad"`
	SLOBurn5m         float64 `json:"slo_burn_5m"`
	SLOBurn1h         float64 `json:"slo_burn_1h"`
	SLOBudgetConsumed float64 `json:"slo_budget_consumed"`
	SLOFastBurn       bool    `json:"slo_fast_burn"`
	SLOSlowBurn       bool    `json:"slo_slow_burn"`

	// Runtime health sampled alongside the SLO fields: the live goroutine
	// count at row end (a leak shows as monotone growth across rows) and the
	// p99 GC pause within the row's window — GC churn that the latency
	// percentiles only hint at.
	Goroutines   int     `json:"goroutines"`
	GCPauseP99Ms float64 `json:"gc_pause_p99_ms"`
}

// ServeReport is the -exp serve artifact (BENCH_serve.json).
type ServeReport struct {
	Title       string     `json:"title"`
	DeadlineMs  float64    `json:"deadline_ms"`
	CapacityRPS float64    `json:"capacity_rps"`
	Rows        []ServeRow `json:"rows"`
	Notes       []string   `json:"notes"`
}

// Format renders the sweep in the repo's table style.
func (r *ServeReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving sweep: %s\n", r.Title)
	fmt.Fprintf(&b, "measured capacity ~%.0f req/s, deadline %.0fms\n", r.CapacityRPS, r.DeadlineMs)
	fmt.Fprintf(&b, "%-8s%10s%7s%7s%10s%10s%10s%10s%10s%10s\n",
		"pattern", "offered", "chaos", "sent", "accepted", "shed%", "p50ms", "p99ms", "degr%", "fall%")
	for _, row := range r.Rows {
		mark := ""
		if row.Overload {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-8s%9.0f%s%6.0f%%%7d%10d%9.1f%%%10.1f%10.1f%9.1f%%%9.1f%%\n",
			row.Pattern, row.OfferedRPS, mark, 100*row.ChaosRate, row.Sent, row.Accepted,
			100*row.ShedRate, row.AcceptedP50Ms, row.AcceptedP99Ms,
			100*row.DegradedRate, 100*row.FallbackShare)
	}
	b.WriteString("(* = offered load beyond measured capacity: shedding expected)\n")
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteJSON writes the report, indented and atomically, to path.
func (r *ServeReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, append(data, '\n'))
}

// RunServe measures the serving daemon end to end, in process: it trains the
// quick POSHGNN primary, boots a deliberately small afterd-equivalent server
// (one-deep batch concurrency, short queues) on a loopback listener,
// calibrates its capacity with a closed-loop burst, then drives the
// open-loop generator through three regimes — steady at half capacity
// (clean), steady at 2x capacity with 10% chaos-corrupted frames, and a
// flash crowd peaking at 4x with the same chaos. The server's primary runs
// under the fault injector (panics + latency spikes) in every row, so the
// sweep also exercises the resilience chain, not just the queues.
func RunServe(o Options) (*ServeReport, error) {
	o = o.withDefaults()
	primary, err := ServePrimary(o)
	if err != nil {
		return nil, err
	}
	// The served primary pays a fixed 4ms floor per step (the feature-fetch
	// + accelerator round trip a production stepper would pay), then runs
	// under injected faults: transient panics and latency spikes at 5%,
	// spikes sized to fit inside the deadline so they degrade steps rather
	// than killing them. The floor also pins the server's capacity into a
	// narrow band on any machine — sleeps dominate CPU — so the sweep's
	// "2x capacity" rows are genuinely past saturation everywhere, from a
	// 1-vCPU CI runner to a big workstation.
	ccfg := chaos.Uniform(9900+o.Seed, 0.05)
	ccfg.LatencySpike = 10 * time.Millisecond
	faultyPrimary := chaos.WrapRecommender(paced(primary, 4*time.Millisecond), ccfg)

	const deadline = 50 * time.Millisecond
	srv := serve.New(serve.Config{
		Primary:         faultyPrimary,
		Fallbacks:       []sim.Recommender{baselines.Nearest{}},
		DefaultDeadline: deadline,
		MaxBatch:        4,
		BatchWindow:     2 * time.Millisecond,
		RoomQueue:       32,
		GlobalQueue:     128,
		Concurrency:     1,
		RetryAfter:      time.Second,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	base := "http://" + addr

	users := o.scaleInt(40, 16)
	capacity, err := calibrate(srv, base, users, o)
	if err != nil {
		return nil, err
	}

	duration := 3 * time.Second
	rooms := 3
	if o.Quick {
		duration = 1500 * time.Millisecond
		rooms = 2
	}
	type rowSpec struct {
		pattern load.Pattern
		// factor scales the measured capacity; rps > 0 instead pins the
		// offered rate absolutely. The fixed row is comparable across commits
		// and machines because the 4ms pacing floor — not the host CPU — sets
		// the serving cost; its p99 is where the fused batched pass shows up
		// (one floor per coalesced batch instead of one per request).
		factor   float64
		rps      float64
		chaos    float64
		overload bool
	}
	specs := []rowSpec{
		{pattern: load.Steady, rps: 150},
		{pattern: load.Steady, factor: 0.5},
		{pattern: load.Steady, factor: 2.0, chaos: 0.10, overload: true},
		{pattern: load.Flash, factor: 2.0, chaos: 0.10, overload: true},
	}
	report := &ServeReport{
		Title: fmt.Sprintf("afterd under open-loop load (POSHGNN primary under 5%% injected faults, %d rooms x N=%d, deadline %v)",
			rooms, users, deadline),
		DeadlineMs:  float64(deadline) / float64(time.Millisecond),
		CapacityRPS: capacity,
	}
	// gcd diffs the cumulative GC-pause histogram per row so each row's
	// gc_pause_p99_ms covers exactly that row's window.
	gcd := prof.NewGCPauseDelta()
	for i, spec := range specs {
		rps := capacity * spec.factor
		if spec.rps > 0 {
			rps = spec.rps
		}
		// Each row gets its own error budget: without the reset, the burn
		// windows (5m/1h) span the whole sweep and the overload rows' sheds
		// would put the clean rows into alert.
		srv.SLO().Reset()
		gcd.Reset()
		lr, err := load.Run(load.Config{
			BaseURL:    base,
			Pattern:    spec.pattern,
			Rooms:      rooms,
			Users:      users,
			Seed:       o.Seed + int64(i+1)*101, // distinct room names per row
			RPS:        rps,
			Duration:   duration,
			DeadlineMs: report.DeadlineMs,
			ChaosRate:  spec.chaos,
			// Bound client-side concurrency well below the default: on a
			// small box the generator otherwise melts the same cores the
			// server needs, and connection-dial queueing pollutes the
			// latency it is trying to measure.
			MaxInflight: 256,
		})
		if err != nil {
			return nil, fmt.Errorf("serve row %s x%.1f: %w", spec.pattern, spec.factor, err)
		}
		row := ServeRow{
			Pattern:           string(spec.pattern),
			OfferedRPS:        lr.OfferedRPS,
			Overload:          spec.overload,
			ChaosRate:         spec.chaos,
			Sent:              lr.Sent,
			Accepted:          lr.Accepted,
			Shed429:           lr.Shed429,
			Shed503:           lr.Shed503,
			Errors:            lr.Errors,
			MissingRetryAfter: lr.MissingRetryAfter,
			ShedRate:          lr.ShedRate,
			AcceptedP50Ms:     lr.AcceptedP50Ms,
			AcceptedP99Ms:     lr.AcceptedP99Ms,
			AcceptedMaxMs:     lr.AcceptedMaxMs,
			Violations:        lr.Violations,
		}
		if lr.Accepted > 0 {
			row.DegradedRate = float64(lr.Degraded) / float64(lr.Accepted)
			var fallback int64
			for name, n := range lr.ServedBy {
				if name != primary.Name() {
					fallback += n
				}
			}
			row.FallbackShare = float64(fallback) / float64(lr.Accepted)
		}
		snap := srv.SLO().Snapshot()
		row.SLOGood = snap.Good
		row.SLOBad = snap.Bad
		row.SLOBurn5m = snap.Burn5m
		row.SLOBurn1h = snap.Burn1h
		row.SLOBudgetConsumed = snap.BudgetConsumed
		row.SLOFastBurn = snap.FastBurn
		row.SLOSlowBurn = snap.SlowBurn
		row.Goroutines = runtime.NumGoroutine()
		row.GCPauseP99Ms = gcd.P99Seconds() * 1e3
		report.Rows = append(report.Rows, row)
	}
	report.Notes = append(report.Notes,
		"server sized for contention on purpose: one batch-processing slot, 32-deep room queues, 128-deep global queue",
		"overload rows (offered 2x measured capacity, flash peaking at 4x) must shed explicitly — 429 on hot room queues, 503 on the global bound or queue-expired deadlines — always with Retry-After",
		"accepted p99 is bounded near the 50ms deadline because time queued is charged against each request's budget and expired requests are shed at dequeue instead of served late",
		"chaos column is the client-side frame corruption rate (NaN coordinates, short frames, duplicate/skipped indices); the primary additionally runs under 5% injected panics and 10ms latency spikes in every row")
	return report, nil
}

// paced adds a fixed floor latency to every step of the wrapped
// recommender. Used by the serve sweep to emulate the per-step serving cost
// (feature fetch, accelerator round trip) that a CPU-only reproduction
// otherwise lacks, making capacity — and therefore the overload rows —
// machine-independent. A batch-capable inner recommender stays batch-capable
// and its fused StepTargets pays the floor ONCE per pass rather than once per
// target. That asymmetry is the point — coalescing K requests into one fused
// pass amortizes the emulated serving round trip exactly the way a real
// accelerator batch would, which is where the serve sweep's accepted-p99 drop
// comes from.
func paced(inner sim.Recommender, floor time.Duration) sim.Recommender {
	return sim.WrapSteps(inner, func(int) func() {
		return func() { time.Sleep(floor) }
	})
}

// calibrate measures the server's end-to-end throughput with a short
// closed-loop burst (8 clients, a few hundred requests) against a scratch
// room, returning requests/second. Closed-loop means the measured rate is
// what the server actually sustains — batching included — so the sweep's
// "2x capacity" rows are genuinely past saturation.
func calibrate(srv *serve.Server, base string, users int, o Options) (float64, error) {
	if _, err := srv.CreateRoom(serve.RoomSpec{Name: "calibrate", Users: users, Seed: 31 + o.Seed}); err != nil {
		return 0, err
	}
	frame := make([]geom.Vec2, users)
	for w := range frame {
		frame[w] = geom.Vec2{X: 1 + float64(w%8), Z: 1 + float64(w/8)}
	}
	if _, err := srv.IngestFrame("calibrate", 0, frame); err != nil {
		return 0, err
	}
	const total = 240
	const clients = 8
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < total/clients; i++ {
				_, _ = srv.Recommend(ctx, "calibrate", (c*7+i)%users, time.Second)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("calibration produced zero elapsed time")
	}
	cap := float64(total) / elapsed
	// Clamp to a band the open-loop generator can meaningfully double on a
	// small CI box without melting the client side.
	if cap < 40 {
		cap = 40
	}
	if cap > 1200 {
		cap = 1200
	}
	return cap, nil
}
