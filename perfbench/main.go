// Command perfbench is the repository benchmark. It boots the AFTER system
// in-process through its public packages, drives one closed-loop workload
// for a fixed window, checks the outputs, and prints every metric by name
// and unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// times calls into every layer from outside and reports the per-layer
// metrics instead. The line before the result is a JSON record of the
// machine, the configuration, the input properties, the checks, and (in
// both modes) the end-to-end figures, so a traced run's difference from an
// untraced one is its tracing overhead.
//
//	bash perfbench/run.sh -workload plaza -seed 1 -seconds 30 -trace 0
//
// Workloads: plaza and crowd serve recommendations over the HTTP handler;
// paper trains and evaluates offline at Table II scale. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"after/internal/dataset"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/quality"
	"after/internal/serve"
)

// outDir holds the span files of traced runs and watchdog bundles, relative
// to the directory the benchmark runs in.
const outDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, reported by every
// workload with -trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"recs_per_s", "1/s"},
	{"rec_p50_ms", "ms"},
	{"rec_p99_ms", "ms"},
	{"tick_p50_ms", "ms"},
	{"fresh_share", "share"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run, one group per module. A layer a
// workload does not run reports 0.
var perLayerMetrics = []metricDef{
	{"serve.frame_us", "us"},
	{"serve.queue_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.fused_share", "share"},
	{"serve.self_us", "us"},
	{"serve.convert_wait_us", "us"},
	{"resilience.sanitize_us", "us"},
	{"occlusion.static_us", "us"},
	{"occlusion.edges", "count"},
	{"occlusion.moved_share", "share"},
	{"occlusion.dog_ms", "ms"},
	{"core.step_ms", "ms"},
	{"core.step_us_per_target", "us"},
	{"core.train_epoch_s", "s"},
	{"core.train_steps_per_s", "1/s"},
	{"tensor.spmm_mflop_per_step", "Mflop"},
	{"sim.fused_ms", "ms"},
	{"sim.episode_ms", "ms"},
	{"sim.eval_steps_per_s", "1/s"},
	{"metrics.score_us", "us"},
	{"quality.record_ms", "ms"},
	{"dataset.room_s", "s"},
	{"exp.train_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_pause_p99_ms", "ms"},
}

var (
	// Each workload sets itself up setupReps times and reports the median as
	// setup_s; the last set-up is the one measured. crowd's 4 s room
	// creation limits it to three; paper's set-up is short, so it takes
	// more.
	plaza = servingSpec{name: "plaza", setupReps: 5, rooms: 4, users: 200, targets: 16, moveShare: 1, deadlineMs: 250,
		warmFrames: 16, distinct: 128, replayPairs: 2, replayFrames: 128, propFrames: 8, traceEvery: 16}
	crowd = servingSpec{name: "crowd", setupReps: 3, rooms: 1, users: 2000, targets: 4, moveShare: 0.05, deadlineMs: 250, rotateEvery: 64,
		warmFrames: 8, distinct: 128, replayPairs: 2, replayFrames: 64, propFrames: 8, traceEvery: 16}
	paper = paperSpec{setupReps: 9, room: dataset.Config{Kind: dataset.Timik}, trainTargets: 3, evalTargets: 8, staticEvery: 10}
)

// workloads maps each -workload name to its run. crowd runs on demand but
// is not declared in BENCHMARK.json; see README.md.
var workloads = map[string]func(seed int64, seconds float64, traced bool) (*output, error){
	"plaza": func(seed int64, seconds float64, traced bool) (*output, error) {
		return serveWorkload(plaza, seed, seconds, traced)
	},
	"crowd": func(seed int64, seconds float64, traced bool) (*output, error) {
		return serveWorkload(crowd, seed, seconds, traced)
	},
	"paper": func(seed int64, seconds float64, traced bool) (*output, error) {
		return paperWorkload(paper, seed, seconds, traced)
	},
}

// telemetry is the program's own telemetry at the binaries' shipped
// defaults: obs and quality recording and the continuous profiler (both
// binaries), plus runtime-health collection and the stall watchdog (afterd).
// Span tracing and the access log stay off, as they ship.
type telemetry struct {
	profiler   *prof.Profiler
	watchdog   *prof.Watchdog
	stopHealth func()
	switches   map[string]any
}

const profWindow = 10 * time.Second

func startTelemetry(serving bool) *telemetry {
	obs.SetEnabled(true)
	quality.SetEnabled(true)
	tel := &telemetry{profiler: prof.Start(prof.Options{Window: profWindow}), stopHealth: func() {}}
	tel.switches = map[string]any{
		"obs": true, "quality": true, "prof_window_s": profWindow.Seconds(),
		"span_tracing": false, "access_log": false,
	}
	if serving {
		tel.stopHealth = prof.StartHealth(nil, profWindow)
		tel.watchdog = prof.NewWatchdog(prof.WatchdogConfig{
			Multiple: 8,
			Dir:      filepath.Join(outDir, "incidents"),
			OnIncident: func(inc prof.Incident) {
				warnf("watchdog: %s stalled %v (bundle %s)", inc.Name, inc.Stalled, inc.Dir)
			},
		})
		tel.switches["health"] = true
		tel.switches["watchdog_multiple"] = 8
		tel.switches["drain_snapshots"] = false
	}
	return tel
}

func (t *telemetry) stop() {
	t.watchdog.Close()
	t.stopHealth()
	t.profiler.Stop()
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// metricValue is one entry of the result's metrics object. Value is a
// float64, or nil (null) where the figure has no finite value.
type metricValue struct {
	Value any    `json:"value"`
	Unit  string `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick returns every metric in defs, taking values from vals (0 if absent).
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: jsonSafe(vals[d.name]), Unit: d.unit}
	}
	return out
}

// jsonSafe returns v with every non-finite float64 in it, at any depth of
// maps and slices, replaced by nil, which encodes as null: encoding/json
// refuses infinities. A failed serving request counts as +Inf latency, so
// a latency quantile that reaches into the failures has no finite value.
func jsonSafe(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return nil
		}
		return x
	case []float64:
		out := make([]any, len(x))
		for i, f := range x {
			out[i] = jsonSafe(f)
		}
		return out
	case map[string]float64:
		out := make(map[string]any, len(x))
		for k, f := range x {
			out[k] = jsonSafe(f)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = jsonSafe(e)
		}
		return out
	}
	return v
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "plaza, crowd or paper")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	traced := fs.Int("trace", 0, "1 times every layer and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if n, p := runtime.NumCPU(), runtime.GOMAXPROCS(0); p > n {
		warnf("GOMAXPROCS=%d exceeds the %d CPUs this process may use; refusing to run", p, n)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		warnf("need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		warnf("unknown -workload %q (want plaza, crowd or paper)", *workload)
		return 2
	}
	out, err := run(*seed, *seconds, *traced == 1)
	if err != nil {
		warnf("%s: %v", *workload, err)
		return 1
	}
	out.detail["workload"] = *workload
	out.detail["seed"] = *seed
	out.detail["seconds"] = *seconds
	out.detail["trace"] = *traced
	if err := writeResult(os.Stdout, os.Stderr, out, *traced == 1); err != nil {
		warnf("%v", err)
		return 1
	}
	return 0
}

// writeResult prints the run's detail record and then the result line on w,
// and a human summary on human.
func writeResult(w, human io.Writer, out *output, traced bool) error {
	out.detail["machine"] = readMachine()
	out.detail["checks"] = out.checks
	res := result{Correct: true, Attempted: out.tally.attempted, Failed: out.tally.failed}
	for _, c := range out.checks {
		res.Correct = res.Correct && c.OK
		if !c.OK {
			warnf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if traced {
		res.Metrics = pick(perLayerMetrics, out.layers)
	} else {
		res.Metrics = pick(endToEndMetrics, out.e2e)
	}
	report(human, res)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"detail": jsonSafe(out.detail)}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// output is what a workload run hands back for printing.
type output struct {
	e2e    map[string]float64
	layers map[string]float64
	tally  tally
	checks []check
	detail map[string]any
}

func serveWorkload(sp servingSpec, seed int64, seconds float64, traced bool) (*output, error) {
	tel := startTelemetry(true)
	defer tel.stop()
	run, err := runServing(sp, seed, seconds, traced, tel)
	if err != nil {
		return nil, err
	}
	defer run.rig.close()
	e2e, t, samples := run.endToEnd()
	out := &output{e2e: e2e, tally: t, detail: map[string]any{
		"end_to_end": e2e,
		"samples":    samples,
		"inputs":     run.inputProps(seed),
		"runtime":    run.rt,
		"config":     serveConfig(run.rig.srv),
		"telemetry":  tel.switches,
	}}
	rig := run.rig
	rig.mu.Lock()
	invalid := append([]string(nil), rig.invalid...)
	rig.mu.Unlock()
	out.checks = append(out.checks, check{
		Name:   "answers_valid",
		OK:     len(invalid) == 0,
		Detail: fmt.Sprintf("%d requests, %d violations %v", len(rig.reqs), len(invalid), invalid),
	})
	n, err := run.replayCheck()
	out.checks = append(out.checks, check{Name: "fused_equals_sequential", OK: err == nil,
		Detail: fmt.Sprintf("%d sampled answers replayed; %v", n, errString(err))})
	if traced {
		spans := &spanLog{}
		layers, ledger, err := run.traceLayers(spans)
		out.layers = layers
		out.detail["per_layer"] = layers
		out.detail["ledger"] = ledger
		out.checks = append(out.checks, check{Name: "ledger_sums", OK: err == nil, Detail: errString(err)})
		if err := spans.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", sp.name, seed))); err != nil {
			warnf("spans: %v", err)
		}
	}
	return out, nil
}

// serveConfig is the server's normalized configuration in printable form.
func serveConfig(srv *serve.Server) map[string]any {
	c := srv.Config()
	fallbacks := []string{}
	for _, f := range c.Fallbacks {
		fallbacks = append(fallbacks, f.Name())
	}
	return map[string]any{
		"primary":          c.Primary.Name(),
		"primary_scale":    primaryScale,
		"fallbacks":        fallbacks,
		"default_deadline": c.DefaultDeadline.String(),
		"max_deadline":     c.MaxDeadline.String(),
		"max_batch":        c.MaxBatch,
		"batch_window":     c.BatchWindow.String(),
		"room_queue":       c.RoomQueue,
		"global_queue":     c.GlobalQueue,
		"concurrency":      c.Concurrency,
		"max_rooms":        c.MaxRooms,
		"max_room_users":   c.MaxRoomUsers,
		"max_retries":      c.MaxRetries,
		"retry_backoff":    c.RetryBackoff.String(),
		"abandon_after":    c.AbandonAfter.String(),
		"retry_after":      c.RetryAfter.String(),
		"slo_objective":    c.SLOObjective,
		"float32":          c.Float32,
		"access_log":       c.AccessLog != nil,
		"watchdog":         c.Watchdog != nil,
		"profiler":         c.Profiler != nil,
		"snapshot_dir":     c.SnapshotDir,
	}
}

func paperWorkload(sp paperSpec, seed int64, seconds float64, traced bool) (*output, error) {
	tel := startTelemetry(false)
	defer tel.stop()
	run, err := runPaper(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	e2e, t, samples := run.endToEnd()
	out := &output{e2e: e2e, tally: t, detail: map[string]any{
		"end_to_end": e2e,
		"samples":    samples,
		"inputs":     run.inputProps(seed),
		"runtime":    run.rt,
		"config": map[string]any{
			"model":        paperModel,
			"beta":         0.5,
			"eval_targets": run.targets,
		},
		"telemetry": tel.switches,
	}}
	err = run.utilityCheck()
	out.checks = append(out.checks, check{Name: "fused_utility_equals_per_target", OK: err == nil,
		Detail: fmt.Sprintf("first and last of %d ops; %v", len(run.ops), errString(err))})
	if traced {
		spans := &spanLog{}
		if out.layers, err = run.traceLayers(spans); err != nil {
			return nil, err
		}
		out.detail["per_layer"] = out.layers
		if err := spans.write(filepath.Join(outDir, "spans", fmt.Sprintf("paper-seed%d.json", seed))); err != nil {
			warnf("spans: %v", err)
		}
	}
	return out, nil
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// report prints the result for a human on w.
func report(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6v %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
