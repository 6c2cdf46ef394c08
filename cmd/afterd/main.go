// Command afterd is the online AFTER recommendation daemon: a long-running
// HTTP service holding per-room session state. Frame ingestion keeps each
// room's occlusion input fresh; recommendation requests run the POSHGNN
// stepper behind a per-room micro-batcher with admission control, deadline
// propagation, and explicit load shedding (429/503 + Retry-After). SIGTERM
// drains gracefully: admissions stop, in-flight batches flush, and
// OBS_serve.json / QUALITY_serve.json snapshots land before exit.
//
//	afterd -addr :8080 -train-scale 0.3 -quick        # serve a quick model
//	afterd -primary nearest                           # skip training
//	curl -XPOST :8080/v1/rooms -d '{"name":"r","users":24}'
//	curl -XPOST :8080/v1/rooms/r/frames -d '{"index":0,"positions":[[1,1],...]}'
//	curl -XPOST :8080/v1/rooms/r/recommend -d '{"target":3,"deadline_ms":50}'
//
// -chaos-rate wraps the primary in the fault injector (transient panics and
// latency spikes), which exercises the resilience chain in staging exactly
// as the chaos sweep does offline. -debug-addr exposes the live registry
// (/metrics, /debug/pprof, /quality, /slo) while serving.
//
// Per-request telemetry: -trace records request-scoped spans (ingress →
// queue → fused batch → kernel phases, linked across goroutines) and writes
// Chrome trace JSON at drain; -access-log writes one tail-sampled wide-event
// JSONL record per request with size-capped rotation and an atomic final
// flush during drain; /slo reports the error budget and multi-window
// burn-rate alert state for the availability objective set by
// -slo-objective.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"after/internal/baselines"
	"after/internal/chaos"
	"after/internal/exp"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/obs/wide"
	"after/internal/parallel"
	"after/internal/serve"
	"after/internal/sim"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		addr        = flag.String("addr", ":8080", "serve the recommendation API on this address")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /debug/pprof and /quality on this address (e.g. :6060)")
		primary     = flag.String("primary", "poshgnn", "primary recommender: poshgnn (trains at startup) or nearest")
		trainScale  = flag.Float64("train-scale", 0.3, "training room/horizon scale for the poshgnn primary")
		quick       = flag.Bool("quick", false, "single quick training configuration")
		seed        = flag.Int64("seed", 0, "seed offset for training and room generation")
		deadline    = flag.Duration("deadline", 50*time.Millisecond, "default per-request deadline")
		maxBatch    = flag.Int("max-batch", 16, "micro-batch size cap")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "micro-batch max-latency window")
		roomQueue   = flag.Int("room-queue", 64, "per-room pending-request queue bound (full => 429)")
		globalQueue = flag.Int("global-queue", 1024, "global pending-request bound (full => 503)")
		concurrency = flag.Int("concurrency", 0, "concurrent batch-processing slots (0 = worker-pool width)")
		workers     = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		chaosRate   = flag.Float64("chaos-rate", 0, "wrap the primary in the fault injector at this rate (staging)")
		f32         = flag.Bool("f32", false, "serve the poshgnn primary on the float32 inference fast path (training stays float64)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
		snapshotDir = flag.String("snapshot-dir", ".", "directory for drain-time OBS_serve.json / QUALITY_serve.json ('' disables)")
		drainWait   = flag.Duration("drain-timeout", 15*time.Second, "bound on the SIGTERM drain (flush + teardown)")
		obsOn       = flag.Bool("obs", true, "record observability and quality telemetry")
		tracePath   = flag.String("trace", "", "record request spans and write Chrome trace JSON here at drain")
		accessLog   = flag.String("access-log", "", "write one wide-event JSONL record per request here (tail-sampled, size-capped rotation)")
		accessN     = flag.Int("access-sample", wide.DefaultSampleN, "keep 1-in-N healthy requests in the access log (shed/degraded/slow always kept; <0 keeps all)")
		sloObj      = flag.Float64("slo-objective", 0.99, "availability objective for the error-budget tracker behind /slo")
		profOn      = flag.Bool("prof", true, "continuous profiling: windowed CPU profiles with (room, rec, phase) labels; drain writes the last window as cpu_serve.pb.gz to -snapshot-dir (`go tool pprof -tags` sums its CPU per label)")
		profWindow  = flag.Duration("prof-window", 10*time.Second, "continuous-profiling window length; cpu_serve.pb.gz holds the last window, cut short at drain")
		wdMult      = flag.Float64("watchdog-mult", 8, "stall watchdog fires when a batch runs this multiple of its grace budget (0 disables)")
		incidentDir = flag.String("incident-dir", "", "directory for watchdog incident bundles (default: -snapshot-dir)")
		mutexFrac   = flag.Int("mutexprofile", 0, "runtime.SetMutexProfileFraction: sample 1-in-N mutex contention events into /debug/pprof/mutex (0 off)")
		blockRate   = flag.Int("blockprofile", 0, "runtime.SetBlockProfileRate: sample blocking events >= N ns into /debug/pprof/block (0 off)")
	)
	flag.Parse()
	parallel.SetLimit(*workers)
	obs.SetEnabled(*obsOn)
	quality.SetEnabled(*obsOn)
	if *tracePath != "" {
		obs.SetTracing(true)
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	var rec sim.Recommender
	switch *primary {
	case "nearest":
		rec = baselines.Nearest{}
	case "poshgnn":
		fmt.Printf("afterd: training poshgnn primary (scale %.2f, quick=%v, f32=%v)...\n", *trainScale, *quick, *f32)
		start := time.Now()
		train := exp.ServePrimary
		if *f32 {
			// Training is float64 either way; -f32 only switches the served
			// inference path to the single-precision kernels.
			train = exp.ServePrimaryF32
		}
		trained, err := train(exp.Options{Scale: *trainScale, Quick: *quick, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "afterd: training: %v\n", err)
			return 1
		}
		rec = trained
		fmt.Printf("afterd: primary ready in %v\n", time.Since(start).Round(time.Millisecond))
	default:
		fmt.Fprintf(os.Stderr, "afterd: unknown -primary %q (want poshgnn or nearest)\n", *primary)
		return 2
	}
	if *chaosRate > 0 {
		rec = chaos.WrapRecommender(rec, chaos.Uniform(77+*seed, *chaosRate))
		fmt.Printf("afterd: primary wrapped in fault injector at rate %.2f\n", *chaosRate)
	}

	var access *wide.Writer
	if *accessLog != "" {
		var err error
		access, err = wide.Open(*accessLog, wide.Options{SampleN: *accessN})
		if err != nil {
			fmt.Fprintf(os.Stderr, "afterd: -access-log: %v\n", err)
			return 1
		}
		fmt.Printf("afterd: access log at %s (1-in-%d healthy sampling, tail always kept)\n", *accessLog, *accessN)
	}

	// Continuous profiling + runtime health: the profiler cycles windowed,
	// labelled CPU profiles and keeps the last one, and the health collector
	// snapshots runtime/metrics into health.* gauges on every /metrics
	// scrape. Drain writes the final window as cpu_serve.pb.gz.
	var profiler *prof.Profiler
	if *profOn {
		profiler = prof.Start(prof.Options{Window: *profWindow})
		defer profiler.Stop()
		stopHealth := prof.StartHealth(nil, *profWindow)
		defer stopHealth()
		fmt.Printf("afterd: continuous profiling on (%v windows)\n", *profWindow)
	}
	// Stall watchdog: any batch still running after wdMult x the straggler
	// grace dumps an incident bundle (goroutines, a CPU profile, recent
	// wide events) for post-mortem without an attached debugger.
	var watchdog *prof.Watchdog
	if *wdMult > 0 {
		dir := *incidentDir
		if dir == "" {
			dir = *snapshotDir
		}
		if dir != "" {
			watchdog = prof.NewWatchdog(prof.WatchdogConfig{
				Multiple:     *wdMult,
				Dir:          dir,
				RecentEvents: access.Recent,
				OnIncident: func(inc prof.Incident) {
					fmt.Fprintf(os.Stderr, "afterd: WATCHDOG: %s stalled %v (budget %v): bundle at %s\n",
						inc.Name, inc.Stalled.Round(time.Millisecond), inc.Budget, inc.Dir)
				},
			})
			defer watchdog.Close()
		}
	}

	srv := serve.New(serve.Config{
		Primary:         rec,
		Fallbacks:       []sim.Recommender{baselines.Nearest{}},
		DefaultDeadline: *deadline,
		MaxBatch:        *maxBatch,
		BatchWindow:     *batchWindow,
		RoomQueue:       *roomQueue,
		GlobalQueue:     *globalQueue,
		Concurrency:     *concurrency,
		RetryAfter:      *retryAfter,
		SnapshotDir:     *snapshotDir,
		AccessLog:       access,
		Float32:         *f32,
		SLOObjective:    *sloObj,
		Watchdog:        watchdog,
		Profiler:        profiler,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afterd: %v\n", err)
		return 1
	}
	fmt.Printf("afterd: serving on %s (deadline %v, batch %d/%v, queues %d/room %d/global)\n",
		bound, *deadline, *maxBatch, *batchWindow, *roomQueue, *globalQueue)

	if *debugAddr != "" {
		obs.HandleDebug("/slo", srv.SLO().Handler())
		dbg, err := obs.ServeDebug(*debugAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "afterd: -debug-addr: %v\n", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(ctx)
		}()
		fmt.Printf("afterd: debug endpoint on http://%s\n", dbg.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Printf("afterd: %v: draining (stop admissions, flush batches, snapshot)...\n", sig)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "afterd: drain: %v\n", err)
		return 1
	}
	if *tracePath != "" {
		obs.SetTracing(false)
		if err := obs.WriteTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "afterd: -trace: %v\n", err)
			return 1
		}
		fmt.Printf("afterd: wrote trace to %s\n", *tracePath)
	}
	fmt.Println("afterd: drained cleanly")
	return 0
}
