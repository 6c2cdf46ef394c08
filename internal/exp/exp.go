// Package exp defines the paper's experiments: it wires dataset generation,
// model training with validation-based selection, the sim harness, and the
// user-study simulator into one runner per table/figure of the evaluation
// section (Tables II–VIII, Fig. 4). Both cmd/aftersim and the benchmark
// suite call into this package, so the CLI and `go test -bench` regenerate
// identical artifacts.
package exp

import (
	"fmt"
	"strings"
	"time"

	"after/internal/baselines"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/parallel"
	"after/internal/sim"
)

// Options scales an experiment. The zero value means full paper scale
// (N=200, T=100 on Timik/SMM; N=30 on Hub).
type Options struct {
	// Scale shrinks the room and horizon for quick runs: 1 is full paper
	// scale; 0.3 yields N=60, T=30-style smoke experiments. 0 = 1.
	Scale float64
	// Seed offsets all generator and trainer seeds.
	Seed int64
	// Quick reduces training restarts and epochs (CI-friendly).
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

func (o Options) scaleInt(full int, floor int) int {
	v := int(float64(full)*o.Scale + 0.5)
	if v < floor {
		v = floor
	}
	return v
}

// datasetConfig maps a dataset kind to the paper's room parameters under
// the chosen scale.
func (o Options) datasetConfig(kind dataset.Kind) dataset.Config {
	cfg := dataset.Config{Kind: kind, Seed: 1000 + o.Seed}
	switch kind {
	case dataset.Hubs:
		// Hub rooms are already laptop-scale (dozens of users); scaling
		// them further down degenerates the comparison, so only the
		// horizon shrinks.
		cfg.RoomUsers = 30
		cfg.PlatformUsers = 400
	default:
		cfg.RoomUsers = o.scaleInt(200, 20)
		cfg.PlatformUsers = o.scaleInt(3000, 300)
	}
	cfg.T = o.scaleInt(100, 10)
	return cfg
}

// Beta is the paper's default social-presence weight.
const Beta = 0.5

// trainSpec is the model-selection grid.
type trainSpec struct {
	alphas []float64
	seeds  []int64
	epochs int
}

func (o Options) spec() trainSpec {
	if o.Quick {
		return trainSpec{alphas: []float64{core.DefaultAlpha}, seeds: []int64{1 + o.Seed}, epochs: 3}
	}
	return trainSpec{alphas: []float64{0.05, 0.1}, seeds: []int64{1 + o.Seed, 2 + o.Seed, 3 + o.Seed}, epochs: 6}
}

// episodesFrom builds training episodes over several targets per room.
func episodesFrom(rooms []*dataset.Room, targetsPerRoom int) []core.Episode {
	var eps []core.Episode
	for _, r := range rooms {
		for _, t := range sim.DefaultTargets(r, targetsPerRoom) {
			eps = append(eps, core.Episode{Room: r, Target: t})
		}
	}
	return eps
}

// validationUtility scores a recommender on the validation room. The
// evaluation always runs under the name "cand": model-selection passes are
// throwaway measurements, and the quality layer ignores that name by default
// (Config.IgnoreRecs) so validation neither pays the per-step oracle nor
// pollutes the monitored drift series with training-time improvement.
func validationUtility(rec sim.Recommender, room *dataset.Room) (float64, error) {
	cand := sim.Func{RecName: "cand", Start: rec.StartEpisode}
	res, err := sim.Evaluate([]sim.Recommender{cand}, room, sim.DefaultTargets(room, 3), Beta)
	if err != nil {
		return 0, err
	}
	return res["cand"].Utility, nil
}

// POSHGNNRec adapts a trained POSHGNN to the sim harness. The returned
// recommender is batch-capable: sim.Evaluate fuses each worker's block of a
// room's targets, and the serve micro-batcher each batch, into one shared
// forward pass per frame through core.BatchSession, and a per-target episode
// is a width-1 view of one, so table artifacts do not depend on the route.
func POSHGNNRec(m *core.POSHGNN, name string) sim.Recommender {
	return poshgnnRec{m: m, name: name}
}

// POSHGNNRecF32 is POSHGNNRec on the float32 inference fast path: batched
// sessions run the single-precision kernels (roughly halved memory traffic),
// trading the float64 oracle's last bits within the tolerance documented at
// core.BatchSession. Serving-only — training, Table II, and the CI quality
// gate never use it.
func POSHGNNRecF32(m *core.POSHGNN, name string) sim.Recommender {
	return poshgnnRec{m: m, name: name, f32: true}
}

type poshgnnRec struct {
	m    *core.POSHGNN
	name string
	f32  bool
}

func (r poshgnnRec) Name() string { return r.name }

// StartEpisode steps a width-1 view of a fresh batch session, so a request
// served solo and one served fused read identical weights and state layout.
func (r poshgnnRec) StartEpisode(rm *dataset.Room, target int) sim.Stepper {
	return r.m.StartBatchSession(rm, core.BatchOptions{Float32: r.f32}).View(target)
}

// StartBatch implements sim.BatchRecommender.
func (r poshgnnRec) StartBatch(rm *dataset.Room) sim.BatchStepper {
	return r.m.StartBatchSession(rm, core.BatchOptions{Float32: r.f32})
}

// selectModel trains every (alpha, seed) candidate of the grid over the
// worker pool and returns the one with the highest validation score; train
// builds, trains and scores one candidate. Each candidate is self-contained
// (own config, own RNG seed), and the scan keeps the first strict maximum
// in grid order (alphas outer, seeds inner), the winner a sequential scan
// picks, so the selected model does not depend on training concurrency.
func selectModel[M any](spec trainSpec, train func(alpha float64, seed int64) (M, float64, error)) (M, error) {
	var none M
	ns := len(spec.seeds)
	models := make([]M, len(spec.alphas)*ns)
	if len(models) == 0 {
		return none, fmt.Errorf("exp: empty model-selection grid")
	}
	vals := make([]float64, len(models))
	err := parallel.ForEachErr(len(models), func(k int) (err error) {
		models[k], vals[k], err = train(spec.alphas[k/ns], spec.seeds[k%ns])
		return err
	})
	if err != nil {
		return none, err
	}
	best := 0
	for k, v := range vals {
		if v > vals[best] {
			best = k
		}
	}
	return models[best], nil
}

// TrainPOSHGNN trains the model-selection grid and returns the candidate
// with the highest validation utility. base supplies the ablation switches
// (UseMIA/UseLWP) and any fixed hyperparameters.
func TrainPOSHGNN(base core.Config, eps []core.Episode, valRoom *dataset.Room, spec trainSpec) (*core.POSHGNN, error) {
	return selectModel(spec, func(alpha float64, seed int64) (*core.POSHGNN, float64, error) {
		cfg := base
		cfg.Alpha, cfg.Seed, cfg.Epochs = alpha, seed, spec.epochs
		m := core.New(cfg)
		if _, err := m.Train(eps); err != nil {
			return nil, 0, err
		}
		v, err := validationUtility(POSHGNNRec(m, "cand"), valRoom)
		return m, v, err
	})
}

// trainRecurrent selects a TGCN or DCRNN over the same grid, with per-epoch
// early stopping on the validation room (the collapse-prone kernels often
// peak in the middle of training).
func trainRecurrent(build func(baselines.RecurrentConfig) *baselines.Recurrent,
	eps []core.Episode, valRoom *dataset.Room, spec trainSpec) (*baselines.Recurrent, error) {
	return selectModel(spec, func(alpha float64, seed int64) (*baselines.Recurrent, float64, error) {
		m := build(baselines.RecurrentConfig{Alpha: alpha, Seed: seed, Epochs: spec.epochs})
		v, err := m.Train(eps, func() (float64, error) { return validationUtility(m, valRoom) })
		return m, v, err
	})
}

// Row is one method's metrics in a table.
type Row struct {
	Method string
	metrics.Result
}

// Table is a regenerated paper artifact.
type Table struct {
	Name  string
	Title string
	Rows  []Row
	Notes []string
}

// Row returns the row for a method, or nil.
func (t *Table) Row(method string) *Row {
	for i := range t.Rows {
		if t.Rows[i].Method == method {
			return &t.Rows[i]
		}
	}
	return nil
}

// Format renders the table in the paper's row layout (metrics as rows,
// methods as columns).
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.Name, t.Title)
	fmt.Fprintf(&b, "%-22s", "Metrics")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%14s", r.Method)
	}
	b.WriteString("\n")
	line := func(label string, f func(Row) string) {
		fmt.Fprintf(&b, "%-22s", label)
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "%14s", f(r))
		}
		b.WriteString("\n")
	}
	line("AFTER Utility ^", func(r Row) string { return fmt.Sprintf("%.1f", r.Utility) })
	line("Preference ^", func(r Row) string { return fmt.Sprintf("%.1f", r.Preference) })
	line("Social Presence ^", func(r Row) string { return fmt.Sprintf("%.1f", r.Social) })
	line("View Occlusion (%) v", func(r Row) string { return fmt.Sprintf("%.1f%%", 100*r.OcclusionRate) })
	line("Running Time (ms) v", func(r Row) string {
		return fmt.Sprintf("%.3f", float64(r.StepTime)/float64(time.Millisecond))
	})
	// Churn is this repo's addition: the paper discusses recommendation
	// consistency qualitatively; we quantify it.
	line("Churn v (extra)", func(r Row) string { return fmt.Sprintf("%.2f", r.Churn) })
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
