package core

import (
	"fmt"
	"math/rand"
	"time"

	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/obs"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/tensor"
)

// Episode names one training trajectory: follow target through room.
type Episode struct {
	Room   *dataset.Room
	Target int
}

// EpochStats is one epoch of the training curve: mean per-step loss, mean
// pre-clip global gradient norm across optimizer updates, and wall-clock
// duration. Emitted per epoch as a JSONL record when an obs curve sink is
// installed (aftersim -traincurve), tagged with the candidate's (alpha,
// seed) so parallel grid candidates stay distinguishable.
type EpochStats struct {
	Alpha      float64 `json:"alpha"`
	Seed       int64   `json:"seed"`
	Epoch      int     `json:"epoch"`
	Loss       float64 `json:"loss"`
	GradNorm   float64 `json:"grad_norm"`
	DurationMs float64 `json:"duration_ms"`
}

// TrainStats summarizes a training run.
type TrainStats struct {
	// Steps is the total number of optimizer updates performed.
	Steps int
	// Epochs is the per-epoch curve: loss, gradient norm and duration.
	Epochs []EpochStats
}

// Training metrics (obs-gated): last epoch loss / gradient norm gauges, an
// epoch-duration histogram, and a lifetime epoch counter. With several grid
// candidates training in parallel the gauges show "most recent epoch
// anywhere"; the JSONL curve is the per-candidate record.
var (
	obsTrainLoss     = obs.Default().Gauge("train.loss")
	obsTrainGradNorm = obs.Default().Gauge("train.grad_norm")
	obsTrainEpoch    = obs.Default().Histogram("train.epoch")
	obsTrainEpochs   = obs.Default().Counter("train.epochs")
)

// EpisodeDOGs builds each training episode's dynamic occlusion graph once,
// fanned out over the worker pool. A DOG is a pure function of (target,
// trajectory, radius), so the epoch loops reuse them instead of rebuilding
// them every epoch.
func EpisodeDOGs(episodes []Episode) []*occlusion.DOG {
	dogs := make([]*occlusion.DOG, len(episodes))
	parallel.ForEach(len(episodes), func(i int) {
		ep := episodes[i]
		dogs[i] = occlusion.BuildDOG(ep.Target, ep.Room.Traj, ep.Room.AvatarRadius)
	})
	return dogs
}

// Train fits the model on the given episodes with truncated BPTT and Adam
// (lr from Config, Sec. V-A5), one shuffled pass over the episodes per
// epoch. It returns the update count and the per-epoch curve.
func (m *POSHGNN) Train(episodes []Episode) (TrainStats, error) {
	if len(episodes) == 0 {
		return TrainStats{}, fmt.Errorf("core: no training episodes")
	}
	for _, ep := range episodes {
		if ep.Target < 0 || ep.Target >= ep.Room.N {
			return TrainStats{}, fmt.Errorf("core: episode target %d out of range", ep.Target)
		}
	}
	opt := nn.NewAdam(m.params, m.cfg.LR)
	opt.ClipNorm = 5
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1))
	var stats TrainStats
	dogs := EpisodeDOGs(episodes)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochStart := time.Now()
		totalLoss, totalSteps := 0.0, 0
		normSum, updates := 0.0, 0
		for _, idx := range rng.Perm(len(episodes)) {
			loss, gn, n, err := m.trainEpisode(episodes[idx].Room, dogs[idx], opt)
			if err != nil {
				return stats, fmt.Errorf("core: training: %w", err)
			}
			totalLoss += loss
			totalSteps += len(dogs[idx].Frames)
			normSum += gn
			updates += n
		}
		stats.Steps += updates
		es := EpochStats{
			Alpha:      m.cfg.Alpha,
			Seed:       m.cfg.Seed,
			Epoch:      epoch,
			Loss:       totalLoss / float64(totalSteps),
			DurationMs: float64(time.Since(epochStart)) / 1e6,
		}
		if updates > 0 {
			es.GradNorm = normSum / float64(updates)
		}
		stats.Epochs = append(stats.Epochs, es)
		obsTrainLoss.Set(es.Loss)
		obsTrainGradNorm.Set(es.GradNorm)
		obsTrainEpoch.Observe(time.Since(epochStart))
		obsTrainEpochs.Inc()
		if obs.CurveActive() {
			obs.EmitCurve(es)
		}
	}
	return stats, nil
}

// trainEpisode runs one trajectory through the BPTT loop, threading the
// previous frame, MIA's degree cache, r_{t-1} and h_{t-1} between steps and
// detaching the recurrent pair at window boundaries.
func (m *POSHGNN) trainEpisode(room *dataset.Room, dog *occlusion.DOG, opt *nn.Adam) (loss, gradNorm float64, updates int, err error) {
	var (
		prevFrame    *occlusion.StaticGraph
		degrees      DegreeCache
		prevR, prevH *tensor.Tensor
	)
	return nn.TrainBPTT(opt, len(dog.Frames), m.cfg.BPTTWindow, func(t int) *tensor.Tensor {
		frame := dog.Frames[t]
		out := m.forward(room, frame, prevFrame, &degrees, prevR, prevH)
		l := StepLoss(out.r, prevR, out.mia, m.cfg.Alpha, m.cfg.Beta)
		prevFrame, prevR, prevH = frame, out.r, out.h
		return l
	}, func() {
		prevR, prevH = tensor.Detach(prevR), tensor.Detach(prevH)
	})
}
