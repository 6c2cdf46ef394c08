// Package nn provides the small neural-network building blocks used by
// POSHGNN and the learned baselines: a named parameter registry, linear and
// graph-convolution layers, a GRU cell, the Adam optimizer from the paper's
// training setup (Sec. V-A5), and the truncated-BPTT episode loop every
// recurrent model trains through.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"after/internal/tensor"
)

// Params is a registry of named trainable tensors. Layers register their
// weights here so one optimizer instance can update a whole model.
type Params struct {
	names   []string
	tensors map[string]*tensor.Tensor
}

// NewParams returns an empty registry.
func NewParams() *Params {
	return &Params{tensors: map[string]*tensor.Tensor{}}
}

// Register adds a trainable matrix under name and returns its tensor.
// Registering a duplicate name panics: it always indicates a wiring bug.
func (p *Params) Register(name string, m *tensor.Matrix) *tensor.Tensor {
	if _, ok := p.tensors[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	t := tensor.Variable(m)
	p.tensors[name] = t
	p.names = append(p.names, name)
	return t
}

// Names returns the registered parameter names in registration order.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// Get returns the tensor registered under name, or nil.
func (p *Params) Get(name string) *tensor.Tensor { return p.tensors[name] }

// ZeroGrad clears every parameter's gradient.
func (p *Params) ZeroGrad() {
	for _, t := range p.tensors {
		t.ZeroGrad()
	}
}

// bind binds every parameter to a, or unbinds them for nil: while bound,
// the graphs built on them draw their matrices from a.
func (p *Params) bind(a *tensor.Arena) {
	for _, t := range p.tensors {
		t.Bind(a)
	}
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, t := range p.tensors {
		n += len(t.Value.Data)
	}
	return n
}

// CopyTo copies every parameter value into dst, which must contain the same
// names and shapes. It is used to snapshot and restore model weights.
func (p *Params) CopyTo(dst *Params) error {
	for name, t := range p.tensors {
		d := dst.Get(name)
		if d == nil {
			return fmt.Errorf("nn: CopyTo missing parameter %q", name)
		}
		if !d.Value.SameShape(t.Value) {
			return fmt.Errorf("nn: CopyTo shape mismatch for %q", name)
		}
		copy(d.Value.Data, t.Value.Data)
	}
	return nil
}

// Snapshot returns a deep copy of all parameter values keyed by name.
func (p *Params) Snapshot() map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(p.tensors))
	for name, t := range p.tensors {
		out[name] = t.Value.Clone()
	}
	return out
}

// Restore loads values captured by Snapshot back into the parameters.
func (p *Params) Restore(snap map[string]*tensor.Matrix) error {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := p.Get(name)
		if t == nil {
			return fmt.Errorf("nn: Restore unknown parameter %q", name)
		}
		if !t.Value.SameShape(snap[name]) {
			return fmt.Errorf("nn: Restore shape mismatch for %q", name)
		}
		copy(t.Value.Data, snap[name].Data)
	}
	return nil
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B *tensor.Tensor
}

// NewLinear creates a Glorot-initialized linear layer with the given fan-in
// and fan-out, registering its parameters under prefix.
func NewLinear(p *Params, rng *rand.Rand, prefix string, in, out int) *Linear {
	return &Linear{
		W: p.Register(prefix+".W", tensor.GlorotUniform(rng, in, out)),
		B: p.Register(prefix+".b", tensor.NewMatrix(1, out)),
	}
}

// Forward applies the layer to x (rows are examples/nodes).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AddRowBroadcast(tensor.MatMulT(x, l.W), l.B)
}

// GraphConv is the message-passing layer of Eq. 1:
//
//	h^{l+1} = δ(h^l·M1 + (A·h^l)·M2)
//
// where A is a constant CSR adjacency (occlusion or social graph) and δ is
// chosen per layer (ReLU for hidden layers, sigmoid or identity for output).
// Both products run on tensor's float64 kernels, so a layer on the tape
// computes the same bits as the fused inference pass. nn's tests hold it to
// a dense reference built from the N×N adjacency.
type GraphConv struct {
	M1, M2 *tensor.Tensor
}

// NewGraphConv creates a graph convolution with the given dimensions,
// registering parameters under prefix.
func NewGraphConv(p *Params, rng *rand.Rand, prefix string, in, out int) *GraphConv {
	return &GraphConv{
		M1: p.Register(prefix+".M1", tensor.GlorotUniform(rng, in, out)),
		M2: p.Register(prefix+".M2", tensor.GlorotUniform(rng, in, out)),
	}
}

// ForwardSparse applies the layer to node features h (|V|×in) over the
// adjacency adj: the neighbor aggregation A·h runs as an O(E·d) SpMM, and
// the backward pass reuses the same CSR (occlusion adjacencies are
// symmetric). No activation is applied; compose with tensor.ReLU or
// tensor.Sigmoid at the call site. POSHGNN, TGCN and GraFrank train
// through it; POSHGNN's LWP path runs it five times per step.
func (g *GraphConv) ForwardSparse(h *tensor.Tensor, adj *tensor.CSR) *tensor.Tensor {
	neigh := tensor.SpMMT(adj, h)
	return tensor.Add(tensor.MatMulT(h, g.M1), tensor.MatMulT(neigh, g.M2))
}

// GRUCell is a standard gated recurrent unit over row-wise node states,
// used by the TGCN and DCRNN baselines.
type GRUCell struct {
	Wz, Wr, Wh *Linear
}

// NewGRUCell builds a GRU cell with input size in and state size hidden.
func NewGRUCell(p *Params, rng *rand.Rand, prefix string, in, hidden int) *GRUCell {
	return &GRUCell{
		Wz: NewLinear(p, rng, prefix+".z", in+hidden, hidden),
		Wr: NewLinear(p, rng, prefix+".r", in+hidden, hidden),
		Wh: NewLinear(p, rng, prefix+".h", in+hidden, hidden),
	}
}

// Forward advances the cell one step: x is |V|×in input, h is |V|×hidden
// previous state; it returns the new state.
func (c *GRUCell) Forward(x, h *tensor.Tensor) *tensor.Tensor {
	xh := tensor.Concat(x, h)
	z := tensor.Sigmoid(c.Wz.Forward(xh))
	r := tensor.Sigmoid(c.Wr.Forward(xh))
	cand := tensor.Tanh(c.Wh.Forward(tensor.Concat(x, tensor.Mul(r, h))))
	// h' = (1-z)⊗h + z⊗cand. 1-z is formed as (-z)+1, which has the same
	// bits as 1-z and needs no matrix of ones.
	return tensor.Add(tensor.Mul(tensor.AddScalar(tensor.Scale(z, -1), 1), h), tensor.Mul(z, cand))
}

// Adam implements the Adam optimizer with optional gradient clipping. It
// owns its training run's tape arena, so the arena lives as long as it.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // 0 disables clipping
	step     int
	m, v     map[string]*tensor.Matrix
	params   *Params
	arena    *tensor.Arena
}

// NewAdam creates an Adam optimizer for the registry with the paper's
// defaults (lr as given, β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(p *Params, lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[string]*tensor.Matrix{}, v: map[string]*tensor.Matrix{}, params: p,
		arena: tensor.NewArena(),
	}
}

// Step applies one Adam update from the currently accumulated gradients and
// clears them. Parameters with nil gradients are skipped. It returns the
// global gradient norm before clipping (useful for divergence diagnostics).
func (a *Adam) Step() float64 {
	a.step++
	// Global norm for clipping/diagnostics.
	var sq float64
	for _, name := range a.params.names {
		t := a.params.tensors[name]
		if g := t.Grad(); g != nil {
			for _, x := range g.Data {
				sq += x * x
			}
		}
	}
	norm := math.Sqrt(sq)
	scale := 1.0
	if a.ClipNorm > 0 && norm > a.ClipNorm {
		scale = a.ClipNorm / norm
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, name := range a.params.names {
		t := a.params.tensors[name]
		g := t.Grad()
		if g == nil {
			continue
		}
		m, ok := a.m[name]
		if !ok {
			m = tensor.NewMatrix(g.Rows, g.Cols)
			a.m[name] = m
			a.v[name] = tensor.NewMatrix(g.Rows, g.Cols)
		}
		v := a.v[name]
		for i, gi := range g.Data {
			gi *= scale
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*gi
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*gi*gi
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			t.Value.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		t.ZeroGrad()
	}
	return norm
}

// TrainBPTT trains on one episode of steps steps with truncated
// backpropagation through time. step(t) runs step t on the autodiff tape,
// threading the caller's recurrent state, and returns the step's scalar
// loss, or nil when it has none. After every window losses, and after the
// last step, the window's losses are summed left to right and averaged,
// the mean is back-propagated, opt takes one step, and cut detaches the
// caller's recurrent state so the next window starts a fresh tape. It
// returns the summed step losses, the summed pre-clip gradient norms and
// the number of updates. A NaN window mean stops the episode before the
// update.
//
// While it runs, opt's parameters are bound to opt's arena, and after cut
// each window's graph goes back to it for the next window to reuse: cut
// must copy out (tensor.Detach) whatever state the next window reads.
func TrainBPTT(opt *Adam, steps, window int, step func(t int) *tensor.Tensor, cut func()) (loss, gradNorm float64, updates int, err error) {
	opt.params.bind(opt.arena)
	defer opt.params.bind(nil)
	var losses []*tensor.Tensor
	for t := 0; t < steps; t++ {
		if l := step(t); l != nil {
			loss += l.Value.Data[0]
			losses = append(losses, l)
		}
		if len(losses) == 0 || len(losses) < window && t < steps-1 {
			continue
		}
		mean := losses[0]
		for _, l := range losses[1:] {
			mean = tensor.Add(mean, l)
		}
		mean = tensor.Scale(mean, 1/float64(len(losses)))
		if mean.Value.HasNaN() {
			return loss, gradNorm, updates, fmt.Errorf("nn: NaN loss in the BPTT window ending at step %d", t)
		}
		opt.params.ZeroGrad()
		tensor.Backward(mean)
		gradNorm += opt.Step()
		updates++
		losses = losses[:0]
		cut()
		opt.arena.Reset(mean)
	}
	return loss, gradNorm, updates, nil
}
