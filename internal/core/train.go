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
	// Losses holds the mean per-step POSHGNN loss after each epoch.
	Losses []float64
	// Steps is the total number of optimizer updates performed.
	Steps int
	// Epochs is the full per-epoch curve (loss, gradient norm, duration);
	// Losses[i] == Epochs[i].Loss is kept for compatibility.
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

// Train fits the model on the given episodes with truncated BPTT and Adam
// (lr from Config, Sec. V-A5). It returns per-epoch mean losses; callers
// can verify the loss decreases.
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

	// The DOG of an episode is a pure function of (target, trajectory,
	// radius); build each one once up front instead of once per epoch. The
	// conversions fan out over the worker pool.
	dogs := make([]*occlusion.DOG, len(episodes))
	parallel.ForEach(len(episodes), func(i int) {
		ep := episodes[i]
		dogs[i] = occlusion.BuildDOG(ep.Target, ep.Room.Traj, ep.Room.AvatarRadius)
	})

	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochStart := time.Now()
		totalLoss, totalSteps := 0.0, 0
		normSum, updates := 0.0, 0
		order := rng.Perm(len(episodes))
		for _, idx := range order {
			ep := episodes[idx]
			loss, steps, gn, err := m.trainEpisode(ep.Room, dogs[idx], opt)
			if err != nil {
				return stats, err
			}
			totalLoss += loss
			totalSteps += steps
			normSum += gn.sum
			updates += gn.updates
			stats.Steps += (steps + m.cfg.BPTTWindow - 1) / m.cfg.BPTTWindow
		}
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
		stats.Losses = append(stats.Losses, es.Loss)
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

// gradNorms accumulates pre-clip global gradient norms across the optimizer
// updates of one episode.
type gradNorms struct {
	sum     float64
	updates int
}

// trainEpisode runs one full trajectory, applying an optimizer update at the
// end of every BPTT window and detaching the recurrent state between
// windows. It returns the summed per-step loss, the step count, and the
// accumulated pre-clip gradient norms of its optimizer updates.
func (m *POSHGNN) trainEpisode(room *dataset.Room, dog *occlusion.DOG, opt *nn.Adam) (float64, int, gradNorms, error) {
	var (
		prevFrame *occlusion.StaticGraph
		prevR     *tensor.Tensor
		prevH     *tensor.Tensor
		window    []*tensor.Tensor
		total     float64
		gn        gradNorms
	)
	flush := func() error {
		if len(window) == 0 {
			return nil
		}
		loss := window[0]
		for _, l := range window[1:] {
			loss = tensor.Add(loss, l)
		}
		loss = tensor.Scale(loss, 1/float64(len(window)))
		if loss.Value.HasNaN() {
			return fmt.Errorf("core: NaN loss during training")
		}
		m.params.ZeroGrad()
		tensor.Backward(loss)
		gn.sum += opt.Step()
		gn.updates++
		window = window[:0]
		return nil
	}
	steps := len(dog.Frames)
	for t := 0; t < steps; t++ {
		frame := dog.Frames[t]
		out := m.forward(room, frame, prevFrame, prevR, prevH)
		l := m.stepLoss(out, prevR)
		total += l.Value.Data[0]
		window = append(window, l)
		// Recurrent state flows within the window; it is detached at window
		// boundaries (truncated BPTT).
		prevFrame = frame
		prevR = out.r
		prevH = out.h
		if len(window) >= m.cfg.BPTTWindow {
			if err := flush(); err != nil {
				return total, t + 1, gn, err
			}
			prevR = tensor.Detach(prevR)
			prevH = tensor.Detach(prevH)
		}
	}
	if err := flush(); err != nil {
		return total, steps, gn, err
	}
	return total, steps, gn, nil
}

// EpisodeLoss evaluates the mean per-step POSHGNN loss on an episode without
// updating weights; used to report held-out loss.
func (m *POSHGNN) EpisodeLoss(room *dataset.Room, target int) float64 {
	dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
	var (
		prevFrame *occlusion.StaticGraph
		prevR     *tensor.Tensor
		prevH     *tensor.Tensor
		total     float64
	)
	for _, frame := range dog.Frames {
		out := m.forward(room, frame, prevFrame, prevR, prevH)
		total += m.stepLoss(out, prevR).Value.Data[0]
		prevFrame = frame
		prevR = tensor.Detach(out.r)
		prevH = tensor.Detach(out.h)
	}
	return total / float64(len(dog.Frames))
}
