package tensor

import (
	"fmt"
	"math"
)

// Tensor is a node in the reverse-mode autodiff graph. Value holds the
// forward result; grad accumulates ∂L/∂Value during Backward. Tensors that
// come from Variable participate in gradient computation; Constant tensors
// are treated as fixed inputs.
type Tensor struct {
	Value    *Matrix
	grad     *Matrix
	parents  []*Tensor
	back     func()
	requires bool
}

// Variable wraps a matrix as a trainable leaf: Backward will populate its
// gradient.
func Variable(m *Matrix) *Tensor { return &Tensor{Value: m, requires: true} }

// Constant wraps a matrix as a fixed input: no gradient flows into it.
func Constant(m *Matrix) *Tensor { return &Tensor{Value: m} }

// Grad returns the accumulated gradient for t (nil before Backward or for
// constants that no gradient reached).
func (t *Tensor) Grad() *Matrix { return t.grad }

// ZeroGrad clears the accumulated gradient so the tensor can be reused in a
// later backward pass.
func (t *Tensor) ZeroGrad() { t.grad = nil }

// Rows returns the row count of the underlying value.
func (t *Tensor) Rows() int { return t.Value.Rows }

// Cols returns the column count of the underlying value.
func (t *Tensor) Cols() int { return t.Value.Cols }

// accumulate folds g into t's gradient. It never retains g (the first
// accumulation deep-copies, later ones add element-wise), which is what lets
// every back function below route its temporaries through the scratch
// workspace and return them immediately after accumulating.
func (t *Tensor) accumulate(g *Matrix) {
	if !t.requires {
		return
	}
	if t.grad == nil {
		t.grad = g.Clone()
		return
	}
	t.grad.AddInPlace(g)
}

func newOp(value *Matrix, parents ...*Tensor) *Tensor {
	req := false
	for _, p := range parents {
		if p.requires {
			req = true
			break
		}
	}
	return &Tensor{Value: value, parents: parents, requires: req}
}

// Backward runs reverse-mode differentiation from t, which must be a 1×1
// scalar (a loss). Gradients accumulate into every reachable Variable.
func Backward(t *Tensor) {
	if t.Value.Rows != 1 || t.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward on non-scalar %dx%d", t.Value.Rows, t.Value.Cols))
	}
	// Topological order via iterative post-order DFS.
	var order []*Tensor
	seen := map[*Tensor]bool{}
	type frame struct {
		n    *Tensor
		next int
	}
	stack := []frame{{n: t}}
	seen[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.n.parents) {
			p := f.n.parents[f.next]
			f.next++
			if !seen[p] {
				seen[p] = true
				stack = append(stack, frame{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	t.grad = Ones(1, 1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.grad != nil && n.requires {
			n.back()
		}
	}
}

// Add returns a + b (same shapes).
func Add(a, b *Tensor) *Tensor {
	out := newOp(AddMat(a.Value, b.Value), a, b)
	out.back = func() {
		a.accumulate(out.grad)
		b.accumulate(out.grad)
	}
	return out
}

// Sub returns a - b (same shapes).
func Sub(a, b *Tensor) *Tensor {
	out := newOp(SubMat(a.Value, b.Value), a, b)
	out.back = func() {
		a.accumulate(out.grad)
		if b.requires {
			ws := defaultWorkspace
			neg := ws.GetCopy(out.grad)
			neg.ScaleInPlace(-1)
			b.accumulate(neg)
			ws.Put(neg)
		}
	}
	return out
}

// Mul returns the Hadamard (element-wise) product a ⊗ b.
func Mul(a, b *Tensor) *Tensor {
	out := newOp(HadamardMat(a.Value, b.Value), a, b)
	out.back = func() {
		ws := defaultWorkspace
		if a.requires {
			g := ws.Get(out.grad.Rows, out.grad.Cols)
			hadamardInto(g, out.grad, b.Value)
			a.accumulate(g)
			ws.Put(g)
		}
		if b.requires {
			g := ws.Get(out.grad.Rows, out.grad.Cols)
			hadamardInto(g, out.grad, a.Value)
			b.accumulate(g)
			ws.Put(g)
		}
	}
	return out
}

// hadamardInto writes a⊗b into dst; all three must share one shape.
func hadamardInto(dst, a, b *Matrix) {
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// MatMulT returns the matrix product a·b.
func MatMulT(a, b *Tensor) *Tensor {
	out := newOp(MatMul(a.Value, b.Value), a, b)
	out.back = func() {
		ws := defaultWorkspace
		if a.requires {
			bt := ws.Get(b.Value.Cols, b.Value.Rows)
			b.Value.TransposedInto(bt)
			g := ws.Get(out.grad.Rows, bt.Cols)
			MatMulInto(g, out.grad, bt)
			ws.Put(bt)
			a.accumulate(g)
			ws.Put(g)
		}
		if b.requires {
			at := ws.Get(a.Value.Cols, a.Value.Rows)
			a.Value.TransposedInto(at)
			g := ws.Get(at.Rows, out.grad.Cols)
			MatMulInto(g, at, out.grad)
			ws.Put(at)
			b.accumulate(g)
			ws.Put(g)
		}
	}
	return out
}

// Scale returns s·a for a fixed scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	v := a.Value.Clone()
	v.ScaleInPlace(s)
	out := newOp(v, a)
	out.back = func() {
		ws := defaultWorkspace
		g := ws.GetCopy(out.grad)
		g.ScaleInPlace(s)
		a.accumulate(g)
		ws.Put(g)
	}
	return out
}

// AddScalar returns a + s applied element-wise for a fixed scalar s.
func AddScalar(a *Tensor, s float64) *Tensor {
	v := a.Value.Clone()
	for i := range v.Data {
		v.Data[i] += s
	}
	out := newOp(v, a)
	out.back = func() { a.accumulate(out.grad) }
	return out
}

// AddRowBroadcast returns a + bias where bias is a 1×Cols row vector added
// to every row of a (the standard linear-layer bias).
func AddRowBroadcast(a, bias *Tensor) *Tensor {
	if bias.Value.Rows != 1 || bias.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("tensor: AddRowBroadcast bias %dx%d for %dx%d",
			bias.Value.Rows, bias.Value.Cols, a.Value.Rows, a.Value.Cols))
	}
	v := a.Value.Clone()
	for i := 0; i < v.Rows; i++ {
		for j := 0; j < v.Cols; j++ {
			v.Data[i*v.Cols+j] += bias.Value.Data[j]
		}
	}
	out := newOp(v, a, bias)
	out.back = func() {
		a.accumulate(out.grad)
		if bias.requires {
			ws := defaultWorkspace
			bg := ws.GetZeroed(1, a.Value.Cols)
			for i := 0; i < out.grad.Rows; i++ {
				for j := 0; j < out.grad.Cols; j++ {
					bg.Data[j] += out.grad.Data[i*out.grad.Cols+j]
				}
			}
			bias.accumulate(bg)
			ws.Put(bg)
		}
	}
	return out
}

// ReLU returns max(0, a) element-wise (the δ activation in Eq. 1).
func ReLU(a *Tensor) *Tensor {
	v := a.Value.Clone()
	for i, x := range v.Data {
		if x < 0 {
			v.Data[i] = 0
		}
	}
	out := newOp(v, a)
	out.back = func() {
		ws := defaultWorkspace
		g := ws.GetCopy(out.grad)
		for i, x := range a.Value.Data {
			if x <= 0 {
				g.Data[i] = 0
			}
		}
		a.accumulate(g)
		ws.Put(g)
	}
	return out
}

// Sigmoid returns 1/(1+e^-a) element-wise; it produces the probability
// recommendations r̃_t and the preservation vector σ.
func Sigmoid(a *Tensor) *Tensor {
	v := a.Value.Clone()
	for i, x := range v.Data {
		v.Data[i] = 1 / (1 + math.Exp(-x))
	}
	out := newOp(v, a)
	out.back = func() {
		ws := defaultWorkspace
		g := ws.GetCopy(out.grad)
		for i, s := range out.Value.Data {
			g.Data[i] *= s * (1 - s)
		}
		a.accumulate(g)
		ws.Put(g)
	}
	return out
}

// Tanh returns tanh(a) element-wise (used by the GRU cells of the recurrent
// baselines).
func Tanh(a *Tensor) *Tensor {
	v := a.Value.Clone()
	for i, x := range v.Data {
		v.Data[i] = math.Tanh(x)
	}
	out := newOp(v, a)
	out.back = func() {
		ws := defaultWorkspace
		g := ws.GetCopy(out.grad)
		for i, th := range out.Value.Data {
			g.Data[i] *= 1 - th*th
		}
		a.accumulate(g)
		ws.Put(g)
	}
	return out
}

// Log returns the natural logarithm element-wise. Inputs are clamped below
// at 1e-12 so losses like -log σ(x) stay finite.
func Log(a *Tensor) *Tensor {
	const floor = 1e-12
	v := a.Value.Clone()
	for i, x := range v.Data {
		if x < floor {
			x = floor
		}
		v.Data[i] = math.Log(x)
	}
	out := newOp(v, a)
	out.back = func() {
		ws := defaultWorkspace
		g := ws.GetCopy(out.grad)
		for i, x := range a.Value.Data {
			if x < floor {
				x = floor
			}
			g.Data[i] /= x
		}
		a.accumulate(g)
		ws.Put(g)
	}
	return out
}

// Sum reduces a to a 1×1 scalar: the terminal op of every loss.
func Sum(a *Tensor) *Tensor {
	v := NewMatrix(1, 1)
	v.Data[0] = a.Value.Sum()
	out := newOp(v, a)
	out.back = func() {
		ws := defaultWorkspace
		g := ws.Get(a.Value.Rows, a.Value.Cols)
		for i := range g.Data {
			g.Data[i] = out.grad.Data[0]
		}
		a.accumulate(g)
		ws.Put(g)
	}
	return out
}

// Mean reduces a to its scalar average.
func Mean(a *Tensor) *Tensor {
	return Scale(Sum(a), 1/float64(len(a.Value.Data)))
}

// Concat concatenates tensors column-wise: [a ‖ b ‖ …], all with equal row
// counts. It is how MIA assembles [x̂_t ‖ Δ_t ‖ h_{t-1} ‖ r_{t-1}] for LWP.
func Concat(ts ...*Tensor) *Tensor {
	ms := make([]*Matrix, len(ts))
	for i, t := range ts {
		ms[i] = t.Value
	}
	out := newOp(ConcatCols(ms...), ts...)
	out.back = func() {
		ws := defaultWorkspace
		off := 0
		cols := out.Value.Cols
		for _, t := range ts {
			if !t.requires {
				off += t.Value.Cols
				continue
			}
			g := ws.Get(t.Value.Rows, t.Value.Cols)
			for i := 0; i < t.Value.Rows; i++ {
				copy(g.Data[i*t.Value.Cols:(i+1)*t.Value.Cols],
					out.grad.Data[i*cols+off:i*cols+off+t.Value.Cols])
			}
			t.accumulate(g)
			ws.Put(g)
			off += t.Value.Cols
		}
	}
	return out
}

// Detach returns a constant tensor sharing a's current value but cutting the
// gradient flow. POSHGNN uses it for truncated BPTT on r_{t-1} and h_{t-1}
// when configured.
func Detach(a *Tensor) *Tensor { return Constant(a.Value.Clone()) }
