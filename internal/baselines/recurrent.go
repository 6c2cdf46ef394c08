package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"after/internal/core"
	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/sim"
	"after/internal/tensor"
)

// RecurrentConfig tunes the recurrent GNN baselines; zero values take the
// shared defaults of the paper's fair-comparison setup (hidden 8, α=0.01,
// β=0.5, lr=1e-2, the same POSHGNN loss).
type RecurrentConfig struct {
	Hidden     int
	Alpha      float64
	Beta       float64
	Threshold  float64
	LR         float64
	Epochs     int
	BPTTWindow int
	Seed       int64
}

func (c RecurrentConfig) withDefaults() RecurrentConfig {
	if c.Hidden == 0 {
		c.Hidden = 8
	}
	if c.Alpha == 0 {
		c.Alpha = core.DefaultAlpha
	}
	if c.Beta == 0 {
		c.Beta = 0.5
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.LR == 0 {
		c.LR = 1e-2
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BPTTWindow == 0 {
		c.BPTTWindow = 10
	}
	return c
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
	cfg    RecurrentConfig
	params *nn.Params
	kern   kernel
}

// Name implements sim.Recommender.
func (m *Recurrent) Name() string { return m.name }

// Params exposes the parameter registry for tests.
func (m *Recurrent) Params() *nn.Params { return m.params }

// NewTGCN builds the T-GCN baseline [73]: a graph convolution captures
// spatial structure, a GRU captures temporal dynamics.
func NewTGCN(cfg RecurrentConfig) *Recurrent {
	cfg = cfg.withDefaults()
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
func NewDCRNN(cfg RecurrentConfig) *Recurrent {
	cfg = cfg.withDefaults()
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

// features builds the recurrent baselines' per-node input: the same
// utilities POSHGNN sees (fair comparison) without pruning or structural
// deltas, plus a normalized occlusion-degree column — TGCN's raw-adjacency
// convolution can derive local density by itself, but DCRNN's row-normalized
// diffusion cannot, and the loss optimum depends on it.
func recurrentFeatures(room *dataset.Room, frame *occlusion.StaticGraph) *core.MIAOutput {
	mia := core.MIA{Enabled: true}
	agg := mia.Aggregate(room, frame, nil)
	n := room.N
	x := tensor.NewMatrix(n, recurrentInputDim)
	for w := 0; w < n; w++ {
		for j := 0; j < agg.X.Cols; j++ {
			x.Set(w, j, agg.X.At(w, j))
		}
		x.Set(w, agg.X.Cols, float64(len(frame.Neighbors(w)))/float64(n))
	}
	agg.X = x
	return agg
}

// poshgnnLoss is Definition 7 shared by the trained baselines.
func poshgnnLoss(r, prevR *tensor.Tensor, agg *core.MIAOutput, alpha, beta float64) *tensor.Tensor {
	phat := tensor.Constant(agg.PHat)
	shat := tensor.Constant(agg.SHat)
	loss := tensor.Scale(tensor.Sum(tensor.Mul(r, phat)), -(1 - beta))
	if prevR != nil {
		loss = tensor.Add(loss, tensor.Scale(tensor.Sum(tensor.Mul(tensor.Mul(r, prevR), shat)), -beta))
	}
	loss = tensor.Add(loss, tensor.Scale(tensor.QuadraticFormCSR(r, agg.Adj), alpha))
	gamma := (1-beta)*agg.PHat.Sum() + beta*agg.SHat.Sum()
	return tensor.AddScalar(loss, gamma)
}

// episodeDOGs converts every episode's trajectory once (the DOG is a pure
// function of the episode) with the conversions fanned out over the worker
// pool, so the epoch loops can reuse them instead of rebuilding per epoch.
func episodeDOGs(episodes []core.Episode) []*occlusion.DOG {
	dogs := make([]*occlusion.DOG, len(episodes))
	parallel.ForEach(len(episodes), func(i int) {
		ep := episodes[i]
		dogs[i] = occlusion.BuildDOG(ep.Target, ep.Room.Traj, ep.Room.AvatarRadius)
	})
	return dogs
}

// Train fits the kernel on the episodes with truncated BPTT, mirroring the
// POSHGNN trainer. It returns the mean per-step loss of the final epoch.
func (m *Recurrent) Train(episodes []core.Episode) (float64, error) {
	if len(episodes) == 0 {
		return 0, fmt.Errorf("baselines: no training episodes")
	}
	opt := nn.NewAdam(m.params, m.cfg.LR)
	opt.ClipNorm = 5
	rng := rand.New(rand.NewSource(m.cfg.Seed + 2))
	dogs := episodeDOGs(episodes)
	var lastLoss float64
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
		total, steps := 0.0, 0
		for _, idx := range rng.Perm(len(episodes)) {
			ep := episodes[idx]
			l, n, err := m.trainEpisode(ep.Room, dogs[idx], opt, alpha)
			if err != nil {
				return 0, err
			}
			total += l
			steps += n
		}
		lastLoss = total / float64(steps)
	}
	return lastLoss, nil
}

// TrainWithValidation trains like Train but evaluates the model with
// validate after every epoch, snapshots the best-scoring weights, and
// restores them at the end. This is ordinary early stopping, and it is what
// keeps the collapse-prone kernels usable: DCRNN in particular often passes
// through a good phase while the occlusion-penalty curriculum ramps up and
// then falls into the render-nothing optimum.
func (m *Recurrent) TrainWithValidation(episodes []core.Episode, validate func() (float64, error)) (float64, error) {
	if len(episodes) == 0 {
		return 0, fmt.Errorf("baselines: no training episodes")
	}
	opt := nn.NewAdam(m.params, m.cfg.LR)
	opt.ClipNorm = 5
	rng := rand.New(rand.NewSource(m.cfg.Seed + 2))
	dogs := episodeDOGs(episodes)
	bestVal := math.Inf(-1)
	var bestSnap map[string]*tensor.Matrix
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		alpha := m.cfg.Alpha
		if ramp := float64(epoch+1) / (float64(m.cfg.Epochs)/2 + 1); ramp < 1 {
			alpha *= ramp
		}
		for _, idx := range rng.Perm(len(episodes)) {
			ep := episodes[idx]
			if _, _, err := m.trainEpisode(ep.Room, dogs[idx], opt, alpha); err != nil {
				return 0, err
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

// TrainBest trains `restarts` fresh models built with consecutive seeds and
// returns the one achieving the lowest final training loss. The recurrent
// kernels are initialization-sensitive (they occasionally collapse to the
// trivial render-nothing optimum), and restarts are the standard remedy.
func TrainBest(build func(seed int64) *Recurrent, baseSeed int64, restarts int, episodes []core.Episode) (*Recurrent, error) {
	if restarts < 1 {
		restarts = 1
	}
	var best *Recurrent
	bestLoss := math.Inf(1)
	for i := 0; i < restarts; i++ {
		m := build(baseSeed + int64(i))
		loss, err := m.Train(episodes)
		if err != nil {
			return nil, err
		}
		if loss < bestLoss {
			best, bestLoss = m, loss
		}
	}
	return best, nil
}

func (m *Recurrent) trainEpisode(room *dataset.Room, dog *occlusion.DOG, opt *nn.Adam, alpha float64) (float64, int, error) {
	n := room.N
	h := tensor.Constant(tensor.NewMatrix(n, m.cfg.Hidden))
	var prevR *tensor.Tensor
	var window []*tensor.Tensor
	total := 0.0
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
			return fmt.Errorf("baselines: NaN loss training %s", m.name)
		}
		m.params.ZeroGrad()
		tensor.Backward(loss)
		opt.Step()
		window = window[:0]
		return nil
	}
	for _, frame := range dog.Frames {
		agg := recurrentFeatures(room, frame)
		logits, next := m.kern.forward(tensor.Constant(agg.X), agg.Adj, h)
		r := tensor.Mul(tensor.Constant(targetMask(n, frame.Target)), tensor.Sigmoid(logits))
		l := poshgnnLoss(r, prevR, agg, alpha, m.cfg.Beta)
		total += l.Value.Data[0]
		window = append(window, l)
		h = next
		prevR = r
		if len(window) >= m.cfg.BPTTWindow {
			if err := flush(); err != nil {
				return total, len(dog.Frames), err
			}
			h = tensor.Detach(h)
			prevR = tensor.Detach(prevR)
		}
	}
	return total, len(dog.Frames), flush()
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
