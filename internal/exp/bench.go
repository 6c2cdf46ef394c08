package exp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"after/internal/baselines"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/sim"
)

// BenchReport is the persistent performance baseline written by
// `aftersim -exp bench`. A report records enough machine metadata to make a
// later comparison honest (the numbers are only comparable on similar
// hardware) plus the four wall-clock measurements the performance work
// targets: the occlusion converter (sweep vs brute force), DOG construction,
// per-step recommender inference, training, and the full Table II pipeline
// sequential vs parallel.
type BenchReport struct {
	Timestamp     string  `json:"timestamp"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	ParallelLimit int     `json:"parallel_limit"`
	Options       Options `json:"options"`

	Converter ConverterBench `json:"converter"`
	DOG       DOGBench       `json:"dog"`
	Steppers  []StepperBench `json:"steppers"`
	Training  TrainingBench  `json:"training"`
	Table2    TableBench     `json:"table2"`
	// Scale is the POSHGNN inference scaling sweep (see RunScale); omitted
	// from reports written before the CSR path existed.
	Scale []ScaleBench `json:"scale,omitempty"`
	// Batched is the batched-vs-sequential multi-target inference sweep (see
	// RunBatchedBench); omitted from reports written before the batched path
	// existed.
	Batched []BatchBench `json:"batched,omitempty"`
	// Notes carries free-form machine observations measured during the run —
	// currently the observability layer's per-record overhead in both the
	// disabled and enabled states, so a baseline records what its own
	// instrumentation cost.
	Notes []string `json:"notes,omitempty"`
}

// ConverterBench times the sweep-line BuildStatic on one crowded frame: its
// wall-clock, heap bytes and allocations per call.
type ConverterBench struct {
	N           int     `json:"n"`
	Edges       int     `json:"edges"`
	SweepMicros float64 `json:"sweep_us"`
	BytesPerOp  float64 `json:"sweep_bytes_per_op"`
	AllocsPerOp float64 `json:"sweep_allocs_per_op"`
}

// DOGBench times one full trajectory→DOG conversion at the report's scale.
type DOGBench struct {
	RoomN  int     `json:"room_n"`
	RoomT  int     `json:"room_t"`
	WallMs float64 `json:"wall_ms"`
}

// StepperBench is one recommender's mean per-step decision latency over a
// full episode (the paper's "Running Time" row).
type StepperBench struct {
	Name       string  `json:"name"`
	StepMicros float64 `json:"step_us"`
}

// TrainingBench times one quick POSHGNN training run.
type TrainingBench struct {
	Episodes int     `json:"episodes"`
	Epochs   int     `json:"epochs"`
	WallMs   float64 `json:"wall_ms"`
}

// TableBench times the full Table II pipeline (train grid + evaluate) with
// the worker pool pinned to one worker versus the default limit.
type TableBench struct {
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

// newBenchReport captures the machine metadata every report variant shares.
func newBenchReport(o Options) *BenchReport {
	return &BenchReport{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ParallelLimit: parallel.Limit(),
		Options:       o,
	}
}

// RunScaleReport wraps RunScale in a metadata-carrying report so
// `aftersim -exp scale` can persist the sweep on its own (BENCH_scale.json)
// without paying for the full baseline suite.
func RunScaleReport(o Options) (*BenchReport, error) {
	o = o.withDefaults()
	r := newBenchReport(o)
	scale, err := RunScale(o)
	if err != nil {
		return nil, err
	}
	r.Scale = scale
	return r, nil
}

// benchConverterN is the room size of the converter timing: the paper's
// Table VI stress size.
const benchConverterN = 500

// RunBench measures the performance baseline at the given options and
// returns the report. It does not write anything; see WriteJSON.
func RunBench(o Options) (*BenchReport, error) {
	o = o.withDefaults()
	r := newBenchReport(o)
	r.Converter = benchConverter()

	cfg := o.datasetConfig(dataset.SMM)
	room, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	r.DOG = benchDOG(room)

	steppers, err := benchSteppers(room, o)
	if err != nil {
		return nil, err
	}
	r.Steppers = steppers

	training, err := benchTraining(room, o)
	if err != nil {
		return nil, err
	}
	r.Training = training

	table2, err := benchTable2(o)
	if err != nil {
		return nil, err
	}
	r.Table2 = table2

	scale, err := RunScale(o)
	if err != nil {
		return nil, err
	}
	r.Scale = scale

	batched, err := RunBatchedBench(o)
	if err != nil {
		return nil, err
	}
	r.Batched = batched
	r.Notes = append(r.Notes, benchObsOverhead())
	return r, nil
}

// benchObsOverhead measures the observability layer's per-record cost in
// this process, in both the disabled and enabled states, and renders it as a
// machine note. A private registry and tracer keep the probes out of the
// run's own OBS snapshot; the global enable flag is restored afterwards.
func benchObsOverhead() string {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1<<10, reg)
	c := reg.Counter("bench.obs_probe")
	h := reg.Histogram("bench.obs_probe")
	perOp := func(iters int, f func()) float64 {
		f() // warm up
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	prev := obs.SetEnabled(false)
	offCounter := perOp(1_000_000, func() { c.Inc() })
	offSpan := perOp(1_000_000, func() { tr.Begin("probe").End() })
	obs.SetEnabled(true)
	onCounter := perOp(1_000_000, func() { c.Inc() })
	onHist := perOp(1_000_000, func() { h.ObserveNs(137) })
	onSpan := perOp(200_000, func() { tr.Begin("probe").End() })
	obs.SetEnabled(prev)
	return fmt.Sprintf(
		"obs overhead (this machine): disabled counter %.1fns/op, disabled span %.1fns/op; "+
			"enabled counter %.1fns/op, histogram %.1fns/op, metrics-only span %.0fns/op",
		offCounter, offSpan, onCounter, onHist, onSpan)
}

// benchConverter times BuildStatic on one random frame of benchConverterN
// users. Bytes and allocations are the process-wide heap deltas over a run
// of calls, so anything allocating concurrently adds to them.
func benchConverter() ConverterBench {
	rng := rand.New(rand.NewSource(42))
	positions := make([]geom.Vec2, benchConverterN)
	for i := range positions {
		positions[i] = geom.Vec2{X: rng.Float64()*16 - 8, Z: rng.Float64()*16 - 8}
	}
	var g *occlusion.StaticGraph
	build := func() { g = occlusion.BuildStatic(0, positions, occlusion.DefaultAvatarRadius) }
	ns := medianNs(5, build)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return ConverterBench{
		N:           benchConverterN,
		Edges:       g.EdgeCount(),
		SweepMicros: float64(ns) / 1e3,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / runs,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / runs,
	}
}

func benchDOG(room *dataset.Room) DOGBench {
	ns := medianNs(3, func() { occlusion.BuildDOG(0, room.Traj, room.AvatarRadius) })
	return DOGBench{RoomN: room.N, RoomT: room.T(), WallMs: float64(ns) / 1e6}
}

// benchSteppers runs one full episode per recommender and records the mean
// per-step latency. POSHGNN and the recurrent kernels run with untrained
// weights — inference cost does not depend on the weight values.
func benchSteppers(room *dataset.Room, o Options) ([]StepperBench, error) {
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	recs := []sim.Recommender{
		POSHGNNRec(core.New(core.Config{UseMIA: true, UseLWP: true}), "POSHGNN"),
		baselines.Random{Seed: o.Seed + 5},
		baselines.Nearest{},
		baselines.MvAGC{Seed: o.Seed + 6},
		&baselines.GraFrank{Seed: o.Seed + 7},
		baselines.NewTGCN(baselines.RecurrentConfig{Seed: o.Seed + 9}),
		baselines.NewDCRNN(baselines.RecurrentConfig{Seed: o.Seed + 10}),
		baselines.COMURNet{Seed: o.Seed + 8, NodeBudget: comurBudget(room.N)},
	}
	out := make([]StepperBench, 0, len(recs))
	for _, rec := range recs {
		er, err := sim.RunEpisode(rec, room, dog, Beta)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", rec.Name(), err)
		}
		out = append(out, StepperBench{Name: rec.Name(), StepMicros: float64(er.StepTime) / 1e3})
	}
	return out, nil
}

func benchTraining(room *dataset.Room, o Options) (TrainingBench, error) {
	quick := o
	quick.Quick = true
	spec := quick.spec()
	eps := episodesFrom([]*dataset.Room{room}, 2)
	cfg := core.Config{UseMIA: true, UseLWP: true, Alpha: spec.alphas[0], Seed: spec.seeds[0], Epochs: spec.epochs}
	start := time.Now()
	m := core.New(cfg)
	if _, err := m.Train(eps); err != nil {
		return TrainingBench{}, err
	}
	return TrainingBench{
		Episodes: len(eps),
		Epochs:   spec.epochs,
		WallMs:   float64(time.Since(start)) / 1e6,
	}, nil
}

// benchTable2 regenerates Table II twice: once with the worker pool pinned
// to a single worker (the sequential baseline) and once at the default
// limit. On a single-core machine the two runs are expected to tie.
func benchTable2(o Options) (TableBench, error) {
	var out TableBench
	var err error
	parallel.WithLimit(1, func() {
		start := time.Now()
		_, err = Table2(o)
		out.SequentialMs = float64(time.Since(start)) / 1e6
	})
	if err != nil {
		return out, err
	}
	start := time.Now()
	if _, err = Table2(o); err != nil {
		return out, err
	}
	out.ParallelMs = float64(time.Since(start)) / 1e6
	if out.ParallelMs > 0 {
		out.Speedup = out.SequentialMs / out.ParallelMs
	}
	return out, nil
}

// medianNs runs f reps times and returns the median wall-clock in
// nanoseconds — robust against one-off scheduling hiccups.
func medianNs(reps int, f func()) int64 {
	if reps < 1 {
		reps = 1
	}
	times := make([]int64, reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start).Nanoseconds()
	}
	for i := 1; i < len(times); i++ { // insertion sort: reps is tiny
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[reps/2]
}

// Format renders the report for the terminal.
func (r *BenchReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Benchmark baseline (%s, %s/%s, %d CPU, GOMAXPROCS=%d, workers=%d, scale=%.2g quick=%v)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS, r.ParallelLimit, r.Options.Scale, r.Options.Quick)
	fmt.Fprintf(&b, "converter N=%d edges=%d: sweep %.0fus, %.0f B/op, %.1f allocs/op\n",
		r.Converter.N, r.Converter.Edges, r.Converter.SweepMicros, r.Converter.BytesPerOp, r.Converter.AllocsPerOp)
	fmt.Fprintf(&b, "dog build N=%d T=%d: %.1fms\n", r.DOG.RoomN, r.DOG.RoomT, r.DOG.WallMs)
	for _, s := range r.Steppers {
		fmt.Fprintf(&b, "step %-10s %10.1fus\n", s.Name, s.StepMicros)
	}
	fmt.Fprintf(&b, "training %d episodes x %d epochs: %.0fms\n", r.Training.Episodes, r.Training.Epochs, r.Training.WallMs)
	fmt.Fprintf(&b, "table2: sequential %.0fms vs parallel %.0fms (%.2fx)\n",
		r.Table2.SequentialMs, r.Table2.ParallelMs, r.Table2.Speedup)
	if len(r.Scale) > 0 {
		b.WriteString("scale sweep (POSHGNN fused inference per step):\n")
		b.WriteString(FormatScale(r.Scale))
	}
	if len(r.Batched) > 0 {
		b.WriteString("batched sweep (per-target step latency, sequential vs fused vs float32):\n")
		b.WriteString(FormatBatched(r.Batched))
	}
	return b.String()
}

// WriteJSON writes the report, indented, to path. The write is atomic (temp
// file + rename) so a crash mid-write can never leave a torn
// BENCH_baseline.json behind for the compare gate to choke on.
func (r *BenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, append(data, '\n'))
}
