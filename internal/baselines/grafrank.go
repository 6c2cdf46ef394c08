package baselines

import (
	"math/rand"
	"sort"
	"sync"

	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/occlusion"
	"after/internal/sim"
	"after/internal/tensor"
)

// GraFrank is the personalized-ranking baseline [31]: a graph neural network
// that learns user embeddings on the social network and ranks friends by
// embedding affinity. This reproduction trains a two-layer GraphConv encoder
// over the room's social graph with a Bayesian-Pairwise-Ranking objective
// (friends should outscore non-friends) and renders the target's top-K
// scored users. Like MvAGC it is static per episode: it never looks at
// trajectories or occlusion, which is why it trails the spatial methods on
// AFTER utility in the paper.
type GraFrank struct {
	// K is the rendered-set size (0 = DefaultRenderCount).
	K int
	// Dim is the embedding dimension (0 = 8).
	Dim int
	// Iters is the number of BPR sampling steps (0 = 300).
	Iters int
	// Seed drives initialization and negative sampling.
	Seed int64

	mu    sync.Mutex
	cache map[*dataset.Room]*tensor.Matrix // trained embeddings per room
}

// Name implements sim.Recommender.
func (*GraFrank) Name() string { return "GraFrank" }

type grafrankSession struct {
	rendered []bool
}

func (s *grafrankSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := make([]bool, len(s.rendered))
	copy(out, s.rendered)
	return out
}

// StartEpisode trains (or reuses) embeddings for the room and renders the
// target's top-K scored users.
func (b *GraFrank) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	emb := b.embeddings(room)
	n := room.N
	type cand struct {
		id    int
		score float64
	}
	cands := make([]cand, 0, n-1)
	for w := 0; w < n; w++ {
		if w == target {
			continue
		}
		cands = append(cands, cand{w, dotRows(emb, target, w)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	rendered := make([]bool, n)
	k := clampK(b.K, n)
	for i := 0; i < k && i < len(cands); i++ {
		rendered[cands[i].id] = true
	}
	return &grafrankSession{rendered: rendered}
}

func dotRows(m *tensor.Matrix, i, j int) float64 {
	s := 0.0
	for d := 0; d < m.Cols; d++ {
		s += m.At(i, d) * m.At(j, d)
	}
	return s
}

// embeddings trains the BPR encoder once per room (cached: every target in
// the same room shares one pretrained ranker, matching the paper's use of a
// platform-pretrained recommender).
func (b *GraFrank) embeddings(room *dataset.Room) *tensor.Matrix {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cache == nil {
		b.cache = map[*dataset.Room]*tensor.Matrix{}
	}
	if emb, ok := b.cache[room]; ok {
		return emb
	}
	emb := b.train(room)
	b.cache[room] = emb
	return emb
}

func (b *GraFrank) train(room *dataset.Room) *tensor.Matrix {
	dim := b.Dim
	if dim <= 0 {
		dim = 8
	}
	iters := b.Iters
	if iters <= 0 {
		iters = 300
	}
	n := room.N
	rng := rand.New(rand.NewSource(b.Seed + 31))

	// Node features: interest vectors (fall back to random if absent).
	featDim := interestDimOf(room)
	x := tensor.NewMatrix(n, featDim)
	for i := 0; i < n; i++ {
		if room.Interests != nil {
			for d := 0; d < featDim; d++ {
				x.Set(i, d, room.Interests[i][d])
			}
		} else {
			x.Set(i, 0, rng.NormFloat64())
		}
	}
	params := nn.NewParams()
	l1 := nn.NewGraphConv(params, rng, "gf.l1", featDim, dim)
	l2 := nn.NewGraphConv(params, rng, "gf.l2", dim, dim)
	opt := nn.NewAdam(params, 0.01)

	// Collect the positive edges once; their sorted neighbor rows are the
	// adjacency, which the encoder propagates over row-normalized (D⁻¹A).
	type edge struct{ u, v int }
	var edges []edge
	rowPtr, col := make([]int32, n+1), []int32(nil)
	for u := 0; u < n; u++ {
		for _, v := range room.Graph.Neighbors(u) {
			edges = append(edges, edge{u, v})
			col = append(col, int32(v))
		}
		rowPtr[u+1] = int32(len(col))
	}
	if len(edges) == 0 {
		// Edgeless room: any embedding is as good as another.
		return tensor.Randn(rng, n, dim, 0.1)
	}
	adj := tensor.NewCSR(n, n, rowPtr, col, nil, true).RowNormalized()

	encode := func() *tensor.Tensor {
		h := tensor.ReLU(l1.ForwardSparse(tensor.Constant(x), adj))
		return l2.ForwardSparse(h, adj)
	}
	const batch = 16
	// Each iteration is a one-step BPTT window with no state to carry, so it
	// trains out of the optimizer's arena; a NaN loss stops training early.
	_, _, _, _ = nn.TrainBPTT(opt, iters, 1, func(int) *tensor.Tensor {
		emb := encode()
		// BPR over a minibatch: maximize σ(s(u,pos) − s(u,neg)) via the
		// logistic loss; scores are embedding dot products extracted with
		// row-selector matrices so gradients flow through matmuls.
		var loss *tensor.Tensor
		for s := 0; s < batch; s++ {
			e := edges[rng.Intn(len(edges))]
			// Bounded negative sampling: a user friendly with the whole
			// room has no negatives — skip rather than spin forever.
			neg := -1
			for attempt := 0; attempt < 4*n; attempt++ {
				c := rng.Intn(n)
				if c != e.u && !room.Graph.HasEdge(e.u, c) {
					neg = c
					break
				}
			}
			if neg < 0 {
				continue
			}
			su := rowSelector(n, e.u)
			diffSel := rowSelector(n, e.v)
			diffSel.Data[neg]--
			// score diff = (e_u · emb)ᵀ · ((e_pos − e_neg) · emb)
			uEmb := tensor.MatMulT(tensor.Constant(su), emb)      // 1×dim
			dEmb := tensor.MatMulT(tensor.Constant(diffSel), emb) // 1×dim
			sd := tensor.Sum(tensor.Mul(uEmb, dEmb))              // scalar
			// -log σ(sd) = softplus(-sd); use -log(sigmoid) directly.
			term := tensor.Scale(logSigmoid(sd), -1)
			if loss == nil {
				loss = term
			} else {
				loss = tensor.Add(loss, term)
			}
		}
		if loss == nil {
			return nil // every sample lacked a negative this round
		}
		return tensor.Scale(loss, 1.0/batch)
	}, func() {})
	return encode().Value.Clone()
}

// logSigmoid returns log σ(x) built from differentiable primitives.
func logSigmoid(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Log(tensor.Sigmoid(x))
}

func interestDimOf(room *dataset.Room) int {
	if room.Interests != nil && len(room.Interests) > 0 && len(room.Interests[0]) > 0 {
		return len(room.Interests[0])
	}
	return 1
}

// rowSelector returns the 1×n one-hot row picking index i.
func rowSelector(n, i int) *tensor.Matrix {
	m := tensor.NewMatrix(1, n)
	m.Set(0, i, 1)
	return m
}
