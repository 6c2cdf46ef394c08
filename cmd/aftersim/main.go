// Command aftersim regenerates the paper's evaluation artifacts. Each
// experiment id corresponds to one table or figure of the paper:
//
//	aftersim -exp table2            # Table II  (Timik comparison)
//	aftersim -exp table3            # Table III (SMM comparison)
//	aftersim -exp table4            # Table IV  (Hub comparison)
//	aftersim -exp table5            # Table V   (ablation)
//	aftersim -exp table6            # Table VI  (sensitivity to N)
//	aftersim -exp table7            # Table VII (sensitivity to VR share)
//	aftersim -exp table8            # Table VIII (correlations)
//	aftersim -exp fig4              # Fig. 4    (user study panels)
//	aftersim -exp chaos             # chaos sweep (utility retention under faults)
//	aftersim -exp bench             # performance baseline (writes BENCH_*.json)
//	aftersim -exp scale             # inference scaling sweep (BENCH_scale.json)
//	aftersim -exp serve             # serving daemon under open-loop load (BENCH_serve.json)
//	aftersim -exp all               # everything, in order
//
// -scale shrinks rooms and horizons proportionally (1 = paper scale, which
// trains several models and can take many minutes; 0.3 reproduces the same
// shapes in a coffee break). -quick collapses the model-selection grid to a
// single configuration.
//
// Performance knobs: -parallel N caps the worker pool (0 = GOMAXPROCS, 1 =
// fully sequential); -cpuprofile / -memprofile write pprof profiles of the
// run. `-exp bench` records the wall-clock baseline to BENCH_baseline.json
// on first run and BENCH_latest.json afterwards, so a baseline refresh is an
// explicit delete-and-rerun.
//
// Observability: metrics are on by default (-obs=false turns the registry
// into a few-ns no-op). Every experiment writes an OBS_<exp>.json registry
// snapshot next to its results — per-recommender step-latency histograms,
// per-phase (dog/mia/pdr/lwp/decode) span rollups, worker-pool gauges, and
// resilience intervention counters. -debug-addr :6060 additionally serves
// the registry live at /metrics (Prometheus text), /debug/vars (expvar),
// /debug/pprof/* and /quality while the run is in flight; -trace out.json
// captures the span stream as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev); -traincurve curve.jsonl appends one
// JSONL record per training epoch (loss, grad norm, duration, tagged with
// alpha/seed).
//
// Quality telemetry (rides -obs, own switch -quality): every evaluation
// experiment additionally writes QUALITY_<exp>.json — per-recommender
// utility attribution (preference / social / occlusion-gate, bit-identical
// to the scored totals), per-step regret against the MWIS oracle, render-set
// churn, and any EWMA/CUSUM drift alerts. `aftersim -report` fuses all
// OBS_/QUALITY_/BENCH_ artifacts in the working directory into a single
// self-contained REPORT.html dashboard; -quality-baseline FILE gates the
// run's oracle-regret rate against a checked-in QUALITY snapshot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"after/internal/exp"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/parallel"
)

// profiler is the run's continuous profiler (nil with -prof=false or
// -obs=false; every method is nil-safe). Package-level so runBench can
// snapshot the current aggregate for regression attribution.
var profiler *prof.Profiler

// main defers to realMain so the profile/trace-flushing defers run before
// the process exits (os.Exit would skip them).
func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		expID      = flag.String("exp", "all", "experiment id: table2..table8, fig4, chaos, bench, or all")
		scale      = flag.Float64("scale", 1.0, "room/horizon scale factor (1 = paper scale)")
		quick      = flag.Bool("quick", false, "single training configuration instead of the selection grid")
		seed       = flag.Int64("seed", 0, "seed offset for all generators and trainers")
		workers    = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
		obsOn      = flag.Bool("obs", true, "record observability metrics and write OBS_<exp>.json snapshots")
		qualityOn  = flag.Bool("quality", true, "record quality telemetry (attribution, oracle regret, drift) and write QUALITY_<exp>.json; requires -obs")
		qualityRef = flag.String("quality-baseline", "", "fail if any recommender's oracle-regret rate regresses >5% vs this QUALITY_*.json baseline")
		report     = flag.Bool("report", false, "fuse OBS_/QUALITY_/BENCH_ JSON artifacts in the working directory into REPORT.html and exit")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /quality on this address (e.g. :6060)")
		tracePath  = flag.String("trace", "", "capture the span stream as Chrome trace-event JSON to this file")
		curvePath  = flag.String("traincurve", "", "append per-epoch training-curve records (JSONL) to this file")
		profOn     = flag.Bool("prof", true, "continuous profiling: windowed CPU profiles with (room, rec, phase) labels; writes PROF_<exp>.json per experiment (requires -obs)")
		profWindow = flag.Duration("prof-window", 10*time.Second, "continuous-profiling window length")
		mutexFrac  = flag.Int("mutexprofile", 0, "runtime.SetMutexProfileFraction: sample 1-in-N mutex contention events into /debug/pprof/mutex (0 off)")
		blockRate  = flag.Int("blockprofile", 0, "runtime.SetBlockProfileRate: sample blocking events >= N ns into /debug/pprof/block (0 off)")
	)
	flag.Parse()
	opts := exp.Options{Scale: *scale, Quick: *quick, Seed: *seed}
	parallel.SetLimit(*workers)

	// -report is a pure join over artifacts already on disk: no simulation,
	// no registry, just read-decode-render-write and exit.
	if *report {
		if err := quality.WriteReport(".", "REPORT.html"); err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: -report: %v\n", err)
			return 1
		}
		fmt.Println("wrote REPORT.html")
		return 0
	}

	// -trace without metrics would record anonymous spans from instrumented
	// call sites that only intern names when the registry is live; tracing
	// therefore implies -obs.
	recordObs := *obsOn || *tracePath != ""
	obs.SetEnabled(recordObs)
	// Quality telemetry rides the obs gate (its histograms/gauges/alert spans
	// live in the obs registry), so -obs=false silences it too.
	recordQuality := *qualityOn && recordObs
	quality.SetEnabled(recordQuality)
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	// Profiling set-up is fail-fast: both output files are created before any
	// work runs, so a typo'd path dies in milliseconds instead of after a
	// 20-minute sweep. The flush defers below run on every exit path of
	// realMain — early flag errors, experiment failures, and success alike.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "aftersim: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: -cpuprofile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: -memprofile: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: -memprofile: %v\n", err)
			}
		}()
	}
	// The continuous profiler starts after a -cpuprofile (if any) has claimed
	// the process's single CPU-profile slot: the explicit whole-run profile
	// wins, and the continuous loop counts skipped windows instead of failing.
	if *profOn && recordObs {
		profiler = prof.Start(prof.Options{Window: *profWindow})
		defer profiler.Stop()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: -trace: %v\n", err)
			return 1
		}
		obs.SetTracing(true)
		defer func() {
			obs.SetTracing(false)
			if err := obs.DefaultTracer().WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: -trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: -trace: %v\n", err)
			}
			fmt.Printf("wrote span trace to %s (%d spans dropped from ring)\n",
				*tracePath, obs.DefaultTracer().Dropped())
		}()
	}
	if *curvePath != "" {
		f, err := os.Create(*curvePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: -traincurve: %v\n", err)
			return 1
		}
		obs.SetCurveWriter(f)
		defer func() {
			obs.SetCurveWriter(nil)
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: -traincurve: %v\n", err)
			}
		}()
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: -debug-addr: %v\n", err)
			return 1
		}
		// Graceful shutdown on both exit paths: the deferred call covers
		// normal completion and errors; the signal goroutine covers ^C and
		// SIGTERM, draining in-flight scrapes before the process dies so a
		// live /metrics poll never sees a torn response.
		var shutdownOnce sync.Once
		shutdown := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: debug endpoint shutdown: %v\n", err)
			}
		}
		defer shutdownOnce.Do(shutdown)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			sig, ok := <-sigc
			if !ok {
				return
			}
			fmt.Fprintf(os.Stderr, "aftersim: %v: shutting down debug endpoint\n", sig)
			shutdownOnce.Do(shutdown)
			// Conventional fatal-signal exit code (128 + signum).
			code := 130
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		}()
		fmt.Printf("debug endpoint live on http://%s (/metrics, /debug/vars, /debug/pprof, /quality)\n\n", srv.Addr())
	}

	runners := map[string]func(exp.Options) (string, error){
		"table2": tableRunner(exp.Table2),
		"table3": tableRunner(exp.Table3),
		"table4": tableRunner(exp.Table4),
		"table5": tableRunner(exp.Table5),
		"table6": tableRunner(exp.Table6),
		"table7": tableRunner(exp.Table7),
		"table8": func(o exp.Options) (string, error) {
			s, err := exp.RunStudy(o)
			if err != nil {
				return "", err
			}
			return s.FormatTable8(), nil
		},
		"fig4": func(o exp.Options) (string, error) {
			s, err := exp.RunStudy(o)
			if err != nil {
				return "", err
			}
			return s.FormatFig4(), nil
		},
		"chaos": func(o exp.Options) (string, error) {
			r, err := exp.RunChaos(o)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		},
		"bench": runBench,
		"scale": runScale,
		"serve": runServe,
	}
	order := []string{"table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig4", "chaos"}

	ids := []string{strings.ToLower(*expID)}
	if ids[0] == "all" {
		ids = order
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "aftersim: unknown experiment %q (want one of %s, bench, scale, serve, all)\n",
				id, strings.Join(order, ", "))
			return 2
		}
		if recordObs {
			// Each experiment gets a clean registry so its OBS snapshot
			// reflects that experiment alone; Reset zeroes in place, keeping
			// every package's cached metric handles valid.
			obs.Default().Reset()
		}
		// The profiler aggregate resets in step with the registry so each
		// PROF_<exp>.json covers exactly one experiment.
		profiler.Reset()
		// bench/scale are performance measurements: the per-step oracle in
		// the quality layer would distort exactly the latencies they gate on,
		// so quality pauses for them and resumes afterwards.
		perfExp := id == "bench" || id == "scale"
		expQuality := recordQuality && !perfExp
		if recordQuality {
			quality.SetEnabled(expQuality)
			quality.Default().Reset()
		}
		start := time.Now()
		out, err := run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aftersim: %s: %v\n", id, err)
			return 1
		}
		fmt.Println(out)
		if recordObs {
			// Runtime-health gauges (GC pauses, heap live/goal, goroutines,
			// scheduler latency) snapshot into the registry right before the
			// write, so every OBS_<exp>.json carries the process state its
			// experiment left behind.
			prof.CollectHealth(nil)
			obsPath := "OBS_" + id + ".json"
			if err := obs.Default().WriteJSON(obsPath); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: %s: %v\n", id, err)
				return 1
			}
			fmt.Printf("wrote %s\n", obsPath)
		}
		if profiler != nil {
			profiler.Rotate() // fold the live window before snapshotting
			profPath := "PROF_" + id + ".json"
			if err := profiler.WriteJSON(profPath); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: %s: %v\n", id, err)
				return 1
			}
			snap := profiler.Snapshot()
			fmt.Printf("wrote %s (%.2fs CPU sampled, %.0f%% labeled)\n",
				profPath, snap.CPUSeconds, 100*snap.LabeledFraction)
		}
		if expQuality {
			snap := quality.Default().Snapshot()
			qPath := "QUALITY_" + id + ".json"
			if err := quality.Default().WriteJSON(qPath); err != nil {
				fmt.Fprintf(os.Stderr, "aftersim: %s: %v\n", id, err)
				return 1
			}
			fmt.Printf("wrote %s (%d drift alerts)\n", qPath, snap.AlertsTotal)
			if *qualityRef != "" {
				if msg, err := qualityGate(*qualityRef, snap); err != nil {
					fmt.Fprintf(os.Stderr, "aftersim: %s: %v\n", id, err)
					return 1
				} else if msg != "" {
					fmt.Println(msg)
				}
			}
		}
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// qualityGate compares the run's oracle-regret rates against a checked-in
// QUALITY baseline snapshot: any recommender whose regret rate (fraction of
// achievable utility left on the table, oracle-covered steps only) worsens by
// more than 5% relative (plus a small absolute slack for near-zero baselines)
// fails the run. Regret is deterministic for seeded runs, but like the bench
// gate this downgrades to advisory on single-vCPU machines, where CI baseline
// refreshes may lag the code: the message is printed, the exit stays zero.
func qualityGate(baselinePath string, snap quality.Snapshot) (string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return "", fmt.Errorf("quality gate: %w", err)
	}
	var base quality.Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return "", fmt.Errorf("quality gate: %s: %w", baselinePath, err)
	}
	var regs []string
	for name, cur := range snap.Recommenders {
		ref, ok := base.Recommenders[name]
		if !ok || ref.Regret.Kind == "none" || cur.Regret.Kind == "none" {
			continue
		}
		limit := ref.Regret.Rate*1.05 + 1e-3
		if cur.Regret.Rate > limit {
			regs = append(regs, fmt.Sprintf("%s: regret rate %.4f > baseline %.4f (+5%% limit %.4f)",
				name, cur.Regret.Rate, ref.Regret.Rate, limit))
		}
	}
	if len(regs) == 0 {
		return fmt.Sprintf("quality gate: no oracle-regret regressions vs %s", baselinePath), nil
	}
	sort.Strings(regs)
	msg := fmt.Sprintf("quality gate: oracle-regret regressions vs %s:\n  %s",
		baselinePath, strings.Join(regs, "\n  "))
	if runtime.NumCPU() == 1 {
		return "WARNING (advisory on 1 vCPU): " + msg, nil
	}
	return "", fmt.Errorf("%s", msg)
}

// runBench measures the performance baseline and persists it: the first run
// in a directory claims BENCH_baseline.json, later runs write
// BENCH_latest.json so the checked-in baseline is never clobbered silently.
// A BENCH_latest.json run is additionally compared against the baseline:
// per-step recommender latency more than 25% over baseline fails the run,
// except on single-vCPU machines where noisy-neighbor jitter makes the
// comparison advisory (a warning is printed, the exit stays zero).
func runBench(o exp.Options) (string, error) {
	r, err := exp.RunBench(o)
	if err != nil {
		return "", err
	}
	path := "BENCH_baseline.json"
	if _, err := os.Stat(path); err == nil {
		path = "BENCH_latest.json"
	}
	if err := r.WriteJSON(path); err != nil {
		return "", err
	}
	out := r.Format() + "wrote " + path
	if path != "BENCH_latest.json" {
		// The baseline run also claims the profile baseline, so a later
		// regressing run has symbol-level CPU shares to diff against.
		if profiler != nil {
			profiler.Rotate()
			if err := profiler.WriteJSON("PROF_baseline.json"); err == nil {
				out += "\nwrote PROF_baseline.json (profile baseline for regression attribution)"
			}
		}
		return out, nil
	}
	base, err := exp.ReadBenchReport("BENCH_baseline.json")
	if err != nil {
		return "", fmt.Errorf("bench compare: %w", err)
	}
	regs := exp.CompareSteppers(base, r, 0.25)
	regs = append(regs, exp.CompareBatched(base, r, 0.25)...)
	if len(regs) == 0 {
		return out + "\nbench compare: no per-step latency regressions vs baseline (batched table included)", nil
	}
	msg := "bench compare: per-step latency regressions vs BENCH_baseline.json:\n  " +
		strings.Join(regs, "\n  ")
	// Perf-regression attribution: when a profile baseline exists, diff its
	// top symbols against this run's aggregate so the gate names the code
	// that got slower, not just the recommender row that tripped.
	if attr := benchAttribution(); attr != "" {
		msg += "\n" + attr
	}
	if runtime.NumCPU() == 1 {
		// 1-vCPU runners (the baseline machine class) are too noisy for a
		// hard gate; surface the regression but do not fail.
		return out + "\nWARNING (advisory on 1 vCPU): " + msg, nil
	}
	return "", fmt.Errorf("%s", msg)
}

// benchAttribution renders the symbol-level CPU diff between
// PROF_baseline.json and the live profiler aggregate, or "" when either side
// is missing (no profiler, no baseline, or a run whose every window was
// skipped by an explicit -cpuprofile owning the profile slot).
func benchAttribution() string {
	if profiler == nil {
		return ""
	}
	data, err := os.ReadFile("PROF_baseline.json")
	if err != nil {
		return ""
	}
	var base prof.Summary
	if err := json.Unmarshal(data, &base); err != nil {
		return ""
	}
	profiler.Rotate()
	cur := profiler.Snapshot()
	if base.CPUSeconds <= 0 || cur.CPUSeconds <= 0 {
		return ""
	}
	return "perf attribution (PROF_baseline.json vs this run):\n" +
		prof.FormatDiff(base, cur, 15) +
		"current per-phase attribution:\n" + prof.FormatPhases(cur)
}

// runServe measures the serving daemon under open-loop load, persists
// BENCH_serve.json (always overwritten — a measurement, not a baseline),
// and gates the serving SLOs: overload rows must shed (never silently
// queue), every shed must carry Retry-After, no transport errors, and the
// accepted p99 must stay within 2x the deadline (time queued is charged
// against each request's budget, so accepted latency is bounded by
// construction; the 2x covers straggler grace plus HTTP transport overhead
// — the same SLO afterload's -assert overload defaults to). Like
// the bench gate, SLO breaches downgrade to advisory on 1-vCPU machines,
// where the load generator and the server fight for the same core.
func runServe(o exp.Options) (string, error) {
	r, err := exp.RunServe(o)
	if err != nil {
		return "", err
	}
	if err := r.WriteJSON("BENCH_serve.json"); err != nil {
		return "", err
	}
	out := r.Format() + "wrote BENCH_serve.json"
	var fails []string
	for _, row := range r.Rows {
		tag := fmt.Sprintf("%s@%.0frps", row.Pattern, row.OfferedRPS)
		if row.Accepted == 0 {
			fails = append(fails, tag+": zero accepted requests")
		}
		if row.Overload && row.Shed429+row.Shed503 == 0 {
			fails = append(fails, tag+": overload produced zero sheds — queues are not bounding")
		}
		if row.MissingRetryAfter != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d shed responses missing Retry-After", tag, row.MissingRetryAfter))
		}
		if row.Errors != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d transport errors", tag, row.Errors))
		}
		slo := r.DeadlineMs * 2
		if row.Pattern == "flash" {
			// The flash jump is instantaneous: its first moments include a
			// client connection-dial storm the server-side deadline cannot
			// govern, so the flash row gets 3x instead of 2x.
			slo = r.DeadlineMs * 3
		}
		if row.Accepted > 0 && row.AcceptedP99Ms > slo {
			fails = append(fails, fmt.Sprintf("%s: accepted p99 %.1fms exceeds SLO %.1fms", tag, row.AcceptedP99Ms, slo))
		}
		// Overload rows are SUPPOSED to burn budget (shedding is the design);
		// a fast-burn alert on a row inside capacity means the server is
		// failing traffic it should comfortably serve.
		if !row.Overload && row.SLOFastBurn {
			fails = append(fails, fmt.Sprintf("%s: fast-burn alert (5m burn %.1f, 1h burn %.1f) on a non-overload row",
				tag, row.SLOBurn5m, row.SLOBurn1h))
		}
	}
	if len(fails) == 0 {
		return out + "\nserve gate: all rows within SLO (sheds explicit, Retry-After everywhere, p99 bounded)", nil
	}
	msg := "serve gate: SLO violations:\n  " + strings.Join(fails, "\n  ")
	if runtime.NumCPU() == 1 {
		return out + "\nWARNING (advisory on 1 vCPU): " + msg, nil
	}
	return "", fmt.Errorf("%s", msg)
}

// runScale runs only the inference scaling sweep and persists
// it to BENCH_scale.json (always overwritten: the sweep is a measurement,
// not a pinned baseline).
func runScale(o exp.Options) (string, error) {
	r, err := exp.RunScaleReport(o)
	if err != nil {
		return "", err
	}
	if err := r.WriteJSON("BENCH_scale.json"); err != nil {
		return "", err
	}
	return "scale sweep (POSHGNN fused inference per step):\n" +
		exp.FormatScale(r.Scale) + "wrote BENCH_scale.json", nil
}

func tableRunner(f func(exp.Options) (*exp.Table, error)) func(exp.Options) (string, error) {
	return func(o exp.Options) (string, error) {
		t, err := f(o)
		if err != nil {
			return "", err
		}
		return t.Format(), nil
	}
}
