package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"after/internal/core"
	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/occlusion"
	"after/internal/sim"
	"after/internal/tensor"
)

// RecurrentConfig holds the knobs the model-selection grid varies for the
// recurrent GNN baselines; zero values take POSHGNN's defaults. The other
// hyperparameters (hidden width, β, threshold, learning rate, BPTT window)
// are core.DefaultConfig's, so the baselines cannot drift from the model
// they are compared against.
type RecurrentConfig struct {
	Alpha  float64
	Epochs int
	Seed   int64
}

// config lays c over core.DefaultConfig.
func (c RecurrentConfig) config() core.Config {
	cfg := core.DefaultConfig()
	if c.Alpha != 0 {
		cfg.Alpha = c.Alpha
	}
	if c.Epochs != 0 {
		cfg.Epochs = c.Epochs
	}
	cfg.Seed = c.Seed
	return cfg
}

// kernel is the per-step recurrent computation each baseline supplies.
type kernel interface {
	// forward maps node features x (|V|×4), the CSR adjacency, and hidden
	// state h (|V|×hidden) to recommendation logits (pre-sigmoid, |V|×1)
	// and the next hidden state. Kernels aggregate sparsely: the adjacency
	// is never densified on the baseline paths either.
	forward(x *tensor.Tensor, adj *tensor.CSR, h *tensor.Tensor) (out, next *tensor.Tensor)
}

// Recurrent wraps a recurrent graph kernel (TGCN or DCRNN) trained with the
// POSHGNN loss, mirroring the paper's fair-comparison protocol: same
// inputs, same loss, different spatio-temporal kernel.
type Recurrent struct {
	name   string
	cfg    core.Config
	params *nn.Params
	kern   kernel
}

// Name implements sim.Recommender.
func (m *Recurrent) Name() string { return m.name }

// Params exposes the parameter registry for tests.
func (m *Recurrent) Params() *nn.Params { return m.params }

// NewTGCN builds the T-GCN baseline [73]: a graph convolution captures
// spatial structure, a GRU captures temporal dynamics.
func NewTGCN(rc RecurrentConfig) *Recurrent {
	cfg := rc.config()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := nn.NewParams()
	k := &tgcnKernel{
		gc:  nn.NewGraphConv(p, rng, "tgcn.gc", recurrentInputDim, cfg.Hidden),
		gru: nn.NewGRUCell(p, rng, "tgcn.gru", cfg.Hidden, cfg.Hidden),
		out: nn.NewLinear(p, rng, "tgcn.out", cfg.Hidden, 1),
	}
	return &Recurrent{name: "TGCN", cfg: cfg, params: p, kern: k}
}

type tgcnKernel struct {
	gc  *nn.GraphConv
	gru *nn.GRUCell
	out *nn.Linear
}

func (k *tgcnKernel) forward(x *tensor.Tensor, adj *tensor.CSR, h *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	spatial := tensor.ReLU(k.gc.ForwardSparse(x, adj))
	next := k.gru.Forward(spatial, h)
	return k.out.Forward(next), next
}

// NewDCRNN builds the DCRNN baseline [72]: diffusion convolution over
// random-walk transition matrices feeding a GRU.
func NewDCRNN(rc RecurrentConfig) *Recurrent {
	cfg := rc.config()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := nn.NewParams()
	k := &dcrnnKernel{
		w0:  nn.NewLinear(p, rng, "dcrnn.w0", recurrentInputDim, cfg.Hidden),
		w1:  nn.NewLinear(p, rng, "dcrnn.w1", recurrentInputDim, cfg.Hidden),
		w2:  nn.NewLinear(p, rng, "dcrnn.w2", recurrentInputDim, cfg.Hidden),
		gru: nn.NewGRUCell(p, rng, "dcrnn.gru", cfg.Hidden, cfg.Hidden),
		// The readout sees the GRU state plus a skip connection from the raw
		// node features: without the skip the diffusion+GRU pipeline smears
		// per-user utility across neighborhoods and the model cannot
		// separate good candidates from bad ones.
		out: nn.NewLinear(p, rng, "dcrnn.out", cfg.Hidden+recurrentInputDim, 1),
	}
	// Start in the sparse regime: from a zero (or positive) output bias the
	// first epoch's occlusion-penalty avalanche slams every sigmoid into
	// its flat negative tail, where gradients vanish and the model is stuck
	// rendering nothing. Starting at logit −1 keeps σ′ alive (≈0.2) so
	// high-utility candidates can rise individually.
	k.out.B.Value.Set(0, 0, -1)
	return &Recurrent{name: "DCRNN", cfg: cfg, params: p, kern: k}
}

type dcrnnKernel struct {
	w0, w1, w2 *nn.Linear
	gru        *nn.GRUCell
	out        *nn.Linear
}

func (k *dcrnnKernel) forward(x *tensor.Tensor, adj *tensor.CSR, h *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	// The random-walk transition matrix D⁻¹A keeps the adjacency's sparsity
	// pattern, so diffusion steps stay O(E·d); RowNormalized is memoized on
	// the frame's CSR, and its (non-symmetric) transpose for the backward
	// pass is built lazily once per frame.
	p1 := adj.RowNormalized()
	px := tensor.SpMMT(p1, x)   // one diffusion step
	ppx := tensor.SpMMT(p1, px) // two diffusion steps
	spatial := tensor.ReLU(tensor.Add(tensor.Add(k.w0.Forward(x), k.w1.Forward(px)), k.w2.Forward(ppx)))
	next := k.gru.Forward(spatial, h)
	return k.out.Forward(tensor.Concat(next, x)), next
}

// recurrentInputDim is the per-node feature width of the recurrent
// baselines: MIA's four columns plus the occlusion degree.
const recurrentInputDim = 5

// recurrentFeatures builds the recurrent baselines' per-node input: the x̂_t
// POSHGNN sees (fair comparison), which MIA writes straight into the first
// four columns, without structural deltas, and a normalized occlusion-degree
// fifth column — TGCN's raw-adjacency convolution can derive local density
// by itself, but DCRNN's row-normalized diffusion cannot, and the loss
// optimum depends on it. The loss's p̂_t and ŝ_t carry MIA's pruning.
func recurrentFeatures(room *dataset.Room, frame *occlusion.StaticGraph) *core.MIAOutput {
	mia := core.MIA{Enabled: true}
	agg := mia.Aggregate(room, frame, nil, nil, recurrentInputDim)
	n := room.N
	for w := 0; w < n; w++ {
		agg.X.Set(w, recurrentInputDim-1, float64(len(frame.Neighbors(w)))/float64(n))
	}
	return agg
}

// Train fits the kernel on the episodes with truncated BPTT, evaluates the
// model with validate after every epoch, snapshots the best-scoring
// weights, and restores them at the end; it returns the best score. This
// is ordinary early stopping, and it is what keeps the collapse-prone
// kernels usable: DCRNN in particular often passes through a good phase
// while the occlusion-penalty curriculum ramps up and then falls into the
// render-nothing optimum.
func (m *Recurrent) Train(episodes []core.Episode, validate func() (float64, error)) (float64, error) {
	if len(episodes) == 0 {
		return 0, fmt.Errorf("baselines: no training episodes")
	}
	opt := nn.NewAdam(m.params, m.cfg.LR)
	opt.ClipNorm = 5
	rng := rand.New(rand.NewSource(m.cfg.Seed + 2))
	dogs := core.EpisodeDOGs(episodes)
	bestVal := math.Inf(-1)
	var bestSnap map[string]*tensor.Matrix
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		// Curriculum on the occlusion penalty: in dense rooms a full-strength
		// α at initialization produces a gradient avalanche that saturates
		// every sigmoid into the render-nothing optimum. The penalty ramps
		// linearly over the first half of training, letting the kernel learn
		// the utility signal first.
		alpha := m.cfg.Alpha
		if ramp := float64(epoch+1) / (float64(m.cfg.Epochs)/2 + 1); ramp < 1 {
			alpha *= ramp
		}
		for _, idx := range rng.Perm(len(episodes)) {
			if err := m.trainEpisode(episodes[idx].Room, dogs[idx], opt, alpha); err != nil {
				return 0, fmt.Errorf("baselines: training %s: %w", m.name, err)
			}
		}
		v, err := validate()
		if err != nil {
			return 0, err
		}
		if v > bestVal {
			bestVal = v
			bestSnap = m.params.Snapshot()
		}
	}
	if bestSnap != nil {
		if err := m.params.Restore(bestSnap); err != nil {
			return 0, err
		}
	}
	return bestVal, nil
}

// trainEpisode runs one trajectory through the BPTT loop, threading the
// GRU state and r_{t-1} between steps and detaching both at window
// boundaries.
func (m *Recurrent) trainEpisode(room *dataset.Room, dog *occlusion.DOG, opt *nn.Adam, alpha float64) error {
	n := room.N
	h := tensor.Constant(tensor.NewMatrix(n, m.cfg.Hidden))
	var prevR *tensor.Tensor
	_, _, _, err := nn.TrainBPTT(opt, len(dog.Frames), m.cfg.BPTTWindow, func(t int) *tensor.Tensor {
		frame := dog.Frames[t]
		agg := recurrentFeatures(room, frame)
		logits, next := m.kern.forward(tensor.Constant(agg.X), agg.Adj, h)
		r := tensor.Mul(tensor.Constant(targetMask(n, frame.Target)), tensor.Sigmoid(logits))
		l := core.StepLoss(r, prevR, agg, alpha, m.cfg.Beta)
		h, prevR = next, r
		return l
	}, func() {
		h, prevR = tensor.Detach(h), tensor.Detach(prevR)
	})
	return err
}

// targetMask is a column of ones with a zero at the target row.
func targetMask(n, target int) *tensor.Matrix {
	m := tensor.Ones(n, 1)
	m.Set(target, 0, 0)
	return m
}

type recurrentSession struct {
	model  *Recurrent
	room   *dataset.Room
	target int
	h      *tensor.Tensor
}

// StartEpisode begins inference with a fresh hidden state.
func (m *Recurrent) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return &recurrentSession{
		model:  m,
		room:   room,
		target: target,
		h:      tensor.Constant(tensor.NewMatrix(room.N, m.cfg.Hidden)),
	}
}

func (s *recurrentSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	agg := recurrentFeatures(s.room, frame)
	logits, next := s.model.kern.forward(tensor.Constant(agg.X), agg.Adj, s.h)
	s.h = tensor.Detach(next)
	rendered := make([]bool, s.room.N)
	for w := 0; w < s.room.N; w++ {
		if w == s.target {
			continue
		}
		p := 1 / (1 + expNeg(logits.Value.At(w, 0)))
		rendered[w] = p >= s.model.cfg.Threshold
	}
	return rendered
}

func expNeg(x float64) float64 { return math.Exp(-x) }
