package core

import (
	"math"
	"math/rand"

	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/obs"
	"after/internal/occlusion"
	"after/internal/tensor"
)

// Config selects the POSHGNN hyperparameters; zero values take the paper's
// defaults from Sec. V-A5 (hidden 8, α=0.01, β=0.5, lr=1e-2).
type Config struct {
	// Hidden is the GNN hidden dimension k.
	Hidden int
	// Alpha is the occlusion-penalty weight α in the POSHGNN loss.
	Alpha float64
	// Beta is the social-presence weight β of the AFTER utility.
	Beta float64
	// Threshold binarizes the probability recommendation r_t at inference.
	Threshold float64
	// LR is the Adam learning rate.
	LR float64
	// Epochs is the number of training passes over the episodes.
	Epochs int
	// BPTTWindow truncates backpropagation through time to this many steps
	// (0 = 10). Longer windows capture more continuity signal at higher
	// memory cost.
	BPTTWindow int
	// UseMIA enables the Multi-modal Information Aggregator; disabling it
	// yields the "Only PDR" / raw-input ablations of Table V.
	UseMIA bool
	// UseLWP enables Learning Which to Preserve and the preservation gate;
	// disabling it yields the "PDR w/ MIA" ablation of Table V.
	UseLWP bool
	// MaxRender caps the rendered-set size per step. The zero value takes
	// the default of 10 (withDefaults); any non-positive value reaching the
	// decode stage — e.g. an explicit -1 — means unlimited. Both decode
	// paths (the greedy de-occlusion decoder and RawDecode thresholding)
	// share this "non-positive budget = unlimited" convention. Headsets
	// render a bounded number of surrounding avatars, and the paper's
	// qualitative examples recommend small sets; the cap also keeps the
	// utility comparable with the fixed-k baselines.
	MaxRender int
	// RawDecode disables the greedy de-occlusion decoding of r_t at
	// inference. By default the rendered set is constructed from the
	// probability vector the way PDR's design ancestor (Ahn et al.,
	// "Learning What to Defer", the paper's [38]) decodes MIS solutions:
	// above-threshold users are admitted in decreasing r_t order, skipping
	// candidates that would overlap an already-admitted user. With
	// RawDecode set, thresholding alone decides.
	RawDecode bool
	// Seed drives weight initialization and episode shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 8
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
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
	if c.MaxRender == 0 {
		c.MaxRender = 10
	}
	return c
}

// DefaultConfig returns the paper's full POSHGNN configuration.
func DefaultConfig() Config {
	return Config{UseMIA: true, UseLWP: true}.withDefaults()
}

// POSHGNN is the trained model: a PDR (2-layer GNN) plus, when enabled, an
// LWP (3-layer GNN) sharing one parameter registry.
type POSHGNN struct {
	cfg    Config
	params *nn.Params
	mia    MIA

	pdr1, pdr2       *nn.GraphConv
	lwp1, lwp2, lwp3 *nn.GraphConv
}

// New builds an untrained POSHGNN with Glorot-initialized weights.
func New(cfg Config) *POSHGNN {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := nn.NewParams()
	m := &POSHGNN{
		cfg:    cfg,
		params: p,
		mia:    MIA{Enabled: cfg.UseMIA},
		pdr1:   nn.NewGraphConv(p, rng, "pdr.l1", featureDim, cfg.Hidden),
		pdr2:   nn.NewGraphConv(p, rng, "pdr.l2", cfg.Hidden, 1),
	}
	if cfg.UseLWP {
		in := featureDim + deltaDim + cfg.Hidden + 1 // x̂ ‖ Δ ‖ h_{t-1} ‖ r_{t-1}
		m.lwp1 = nn.NewGraphConv(p, rng, "lwp.l1", in, cfg.Hidden)
		m.lwp2 = nn.NewGraphConv(p, rng, "lwp.l2", cfg.Hidden, cfg.Hidden)
		m.lwp3 = nn.NewGraphConv(p, rng, "lwp.l3", cfg.Hidden, 1)
	}
	return m
}

// Config returns the model's effective configuration.
func (m *POSHGNN) Config() Config { return m.cfg }

// Params exposes the parameter registry (tests and tooling).
func (m *POSHGNN) Params() *nn.Params { return m.params }

// SetBlocklist installs a per-user block mask applied by MIA at every step
// (nil clears it). Length must equal the room size used at inference.
func (m *POSHGNN) SetBlocklist(block []bool) { m.mia.Blocklist = block }

// stepOutput bundles one forward step's differentiable results.
type stepOutput struct {
	r     *tensor.Tensor // final recommendation r_t (|V|×1, in [0,1])
	h     *tensor.Tensor // PDR hidden state h_t (|V|×hidden)
	sigma *tensor.Tensor // preservation vector σ (nil when LWP disabled)
	mia   *MIAOutput
}

// forward runs MIA → PDR → LWP → preservation gate for one step on the
// autodiff tape. It serves training only; inference runs the fused
// BatchSession, which is pinned bit-identical to it. Each stage is wrapped in
// an obs span (`mia`, `pdr`, `lwp`), at a load-and-branch cost when
// observability is off.
// prev, prevR and prevH may be nil at t=0 (prevR/prevH default to zeros:
// nothing to inherit); c carries the target's degree sums across the episode.
func (m *POSHGNN) forward(room *dataset.Room, frame, prev *occlusion.StaticGraph, c *DegreeCache, prevR, prevH *tensor.Tensor) stepOutput {
	n := room.N
	spMIA := obs.Begin("mia")
	if !m.cfg.UseLWP {
		c = nil // Δ_t feeds LWP alone
	}
	agg := m.mia.Aggregate(room, frame, prev, c, featureDim)
	spMIA.End()
	x := tensor.Constant(agg.X)
	maskT := tensor.Constant(agg.Mask)

	// PDR (Eq. 1): two graph convolutions; the hidden layer doubles as h_t.
	spPDR := obs.Begin("pdr")
	h := tensor.ReLU(m.pdr1.ForwardSparse(x, agg.Adj))
	rTilde := tensor.Sigmoid(m.pdr2.ForwardSparse(h, agg.Adj))
	spPDR.End()

	if !m.cfg.UseLWP {
		return stepOutput{r: tensor.Mul(maskT, rTilde), h: h, mia: agg}
	}

	spLWP := obs.Begin("lwp")
	if prevR == nil {
		prevR = tensor.Constant(tensor.NewMatrix(n, 1))
	}
	if prevH == nil {
		prevH = tensor.Constant(tensor.NewMatrix(n, m.cfg.Hidden))
	}
	lwpIn := tensor.Concat(x, tensor.Constant(agg.Delta), prevH, prevR)
	z := tensor.ReLU(m.lwp1.ForwardSparse(lwpIn, agg.Adj))
	z = tensor.ReLU(m.lwp2.ForwardSparse(z, agg.Adj))
	sigma := tensor.Sigmoid(m.lwp3.ForwardSparse(z, agg.Adj))

	// Preservation gate: r_t = m_t ⊗ [(1−σ)⊗r̃_t + σ⊗r_{t−1}]. 1−σ is formed
	// as (−σ)+1, which has the same bits and needs no matrix of ones.
	blend := tensor.Add(tensor.Mul(tensor.AddScalar(tensor.Scale(sigma, -1), 1), rTilde), tensor.Mul(sigma, prevR))
	out := stepOutput{r: tensor.Mul(maskT, blend), h: h, sigma: sigma, mia: agg}
	spLWP.End()
	return out
}

// StepLoss is the per-step POSHGNN loss (Definition 7) of the
// recommendation r on the utilities and occlusion graph in mia:
//
//	L_t = −(1−β)·r_tᵀ·p̂_t − β·(r_t⊗r_{t−1})ᵀ·ŝ_t + α·r_tᵀ·A_t·r_t + γ
//
// with γ = Σ_w [(1−β)·p̂ + β·ŝ] keeping the loss non-negative. At t = 0
// (prevR nil) there is no previous set, so the social term is absent. The
// trained baselines train on it too: the paper's fair comparison gives
// them POSHGNN's loss.
func StepLoss(r, prevR *tensor.Tensor, mia *MIAOutput, alpha, beta float64) *tensor.Tensor {
	loss := tensor.Scale(tensor.Sum(tensor.Mul(r, tensor.Constant(mia.PHat))), -(1 - beta))
	if prevR != nil {
		social := tensor.Sum(tensor.Mul(tensor.Mul(r, prevR), tensor.Constant(mia.SHat)))
		loss = tensor.Add(loss, tensor.Scale(social, -beta))
	}
	loss = tensor.Add(loss, tensor.Scale(tensor.QuadraticFormCSR(r, mia.Adj), alpha))
	gamma := (1-beta)*mia.PHat.Sum() + beta*mia.SHat.Sum()
	return tensor.AddScalar(loss, gamma)
}

// decodeRecommendation turns the probability vector r_t into a rendered set
// with a greedy de-occlusion pass: above-threshold users are admitted in
// decreasing probability order, skipping any candidate that overlaps an
// already-admitted user. A non-positive budget means unlimited (matching the
// RawDecode path in BatchSession.decode). The probabilities carry MIA's pruning, PDR's utility
// estimates, and LWP's continuity bias, so the decode is a learned weighting
// of a maximal-independent-set construction.
//
// Equal probabilities are ordered by ascending user index: the tie-break
// makes the admitted set a deterministic function of r_t alone, which the
// workers=1 vs workers=8 determinism suite relies on.
//
// Candidates are visited through lazy min-heap pops rather than a full sort:
// the pop sequence of a heap under a strict total order is exactly the sorted
// sequence, so the admitted set is unchanged, but a decode that stops at the
// render budget only pays O(c + pops·log c) instead of O(c·log c) for c
// above-threshold candidates.
func decodeRecommendation(r *tensor.Matrix, frame *occlusion.StaticGraph, target int, threshold float64, budget int) []bool {
	n := r.Rows
	heap := make([]decodeCand, 0, n)
	for w := 0; w < n; w++ {
		if w != target {
			if p := r.At(w, 0); p >= threshold {
				heap = append(heap, decodeCand{probKey(p), int32(w)})
			}
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDownCand(heap, i)
	}
	rendered := make([]bool, n)
	admitted := 0
	for len(heap) > 0 {
		if budget > 0 && admitted >= budget {
			break
		}
		w := int(heap[0].w)
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		if len(heap) > 1 {
			siftDownCand(heap, 0)
		}
		free := true
		for _, u := range frame.Neighbors(w) {
			if rendered[u] {
				free = false
				break
			}
		}
		if free {
			rendered[w] = true
			admitted++
		}
	}
	return rendered
}

// decodeCand orders a decode candidate by (descending probability, ascending
// user index). The probability is carried as a single uint64 key from
// probKey, so heap comparisons are two integer compares instead of float
// loads with a tie-break branch.
type decodeCand struct {
	key uint64
	w   int32
}

// probKey maps a finite probability to a uint64 whose ascending order is
// descending probability: the IEEE-754 sign-fold (complement negatives, set
// the sign bit on non-negatives) sorts bit patterns like the numbers, and
// complementing that flips the direction. −0 is normalized to +0 first so
// the key agrees with == on probabilities, keeping the index tie-break
// identical to a direct float comparator.
func probKey(p float64) uint64 {
	if p == 0 {
		p = 0
	}
	b := math.Float64bits(p)
	if b&(1<<63) != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// siftDownCand restores the min-heap property rooted at i.
func siftDownCand(h []decodeCand, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if rc := c + 1; rc < len(h) && candBefore(h[rc], h[c]) {
			c = rc
		}
		if !candBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func candBefore(a, b decodeCand) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.w < b.w
}

// DefaultAlpha is the default occlusion-penalty weight. The paper reports
// α=0.01 under its own utility normalization; with this repo's
// relative-distance normalization (nearest user keeps raw utility, so
// typical per-user gains are ~0.3 rather than ~0.06) the equivalent
// penalty-to-gain ratio lands at 0.05. The sensitivity benches sweep α.
const DefaultAlpha = 0.05
