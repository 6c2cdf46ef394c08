package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Tensor is a node in the reverse-mode autodiff graph. Value holds the
// forward result; grad accumulates ∂L/∂Value during Backward. Tensors that
// come from Variable participate in gradient computation; Constant tensors
// are treated as fixed inputs. An op node inherits the arena (see Bind) of
// its first parent that has one, and draws its value, gradient and backward
// temporaries from it; nodes with no bound ancestor allocate.
type Tensor struct {
	Value    *Matrix
	grad     *Matrix
	parents  []*Tensor
	back     func()
	arena    *Arena
	stamp    uint64 // the number of the last walk that visited the node
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
// later backward pass. A bound tensor releases it to its arena.
func (t *Tensor) ZeroGrad() {
	t.arena.put(t.grad)
	t.grad = nil
}

// Bind makes a the arena of t's gradient and of every node later built on
// t, until Bind(nil); nn binds parameters to it while a BPTT episode trains.
func (t *Tensor) Bind(a *Arena) { t.arena = a }

// Rows returns the row count of the underlying value.
func (t *Tensor) Rows() int { return t.Value.Rows }

// Cols returns the column count of the underlying value.
func (t *Tensor) Cols() int { return t.Value.Cols }

// accumulate folds g, a gradient its producer keeps (the output gradient a
// pass-through op hands each parent), into t's gradient: the first
// accumulation copies it into a buffer of t's arena.
func (t *Tensor) accumulate(g *Matrix) {
	if !t.requires {
		return
	}
	if t.grad == nil {
		t.grad = t.arena.get(g.Rows, g.Cols)
		copy(t.grad.Data, g.Data)
		return
	}
	t.grad.AddInPlace(g)
}

// adopt folds g, a buffer the calling back function drew from the arena and
// gives up, into t's gradient: the first accumulation keeps g itself, later
// ones add it in and release it.
func (t *Tensor) adopt(g *Matrix) {
	switch {
	case !t.requires:
	case t.grad == nil:
		t.grad = g
	default:
		t.grad.AddInPlace(g)
		t.arena.put(g)
	}
}

// newOp returns the node of an op over parents, with a rows×cols value of
// undefined contents for the op to fill.
func newOp(rows, cols int, parents ...*Tensor) *Tensor {
	out := &Tensor{parents: parents}
	for _, p := range parents {
		out.requires = out.requires || p.requires
		if out.arena == nil {
			out.arena = p.arena
		}
	}
	out.Value = out.arena.get(rows, cols)
	return out
}

// walks numbers graph walks. A node the current walk has visited carries
// the walk's number in its stamp, so a walk needs no visited set.
var walks atomic.Uint64

// walker is a graph walk's scratch; an arena keeps one for all its walks.
type walker struct {
	order []*Tensor
	stack []walkFrame
}

type walkFrame struct {
	n    *Tensor
	next int
}

// walk returns root and every node of its graph that requires a gradient,
// each after its parents, by an iterative post-order DFS. A node that
// requires no gradient has no parent that does, so the walk skips nothing a
// backward pass needs.
func (w *walker) walk(root *Tensor) []*Tensor {
	stamp := walks.Add(1)
	root.stamp = stamp
	order, stack := w.order[:0], append(w.stack[:0], walkFrame{n: root})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.n.parents) {
			p := f.n.parents[f.next]
			f.next++
			if p.requires && p.stamp != stamp {
				p.stamp = stamp
				stack = append(stack, walkFrame{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	w.order, w.stack = order, stack
	return order
}

// Backward runs reverse-mode differentiation from t, which must be a 1×1
// scalar (a loss). Gradients accumulate into every reachable Variable.
func Backward(t *Tensor) {
	if t.Value.Rows != 1 || t.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward on non-scalar %dx%d", t.Value.Rows, t.Value.Cols))
	}
	w := &walker{}
	if t.arena != nil {
		w = &t.arena.walker
	}
	order := w.walk(t)
	t.grad = t.arena.get(1, 1)
	t.grad.Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.grad != nil && n.requires {
			n.back()
		}
	}
}

// Add returns a + b (same shapes).
func Add(a, b *Tensor) *Tensor {
	a.Value.assertSameShape(b.Value, "Add")
	out := newOp(a.Rows(), a.Cols(), a, b)
	for i, v := range a.Value.Data {
		out.Value.Data[i] = v + b.Value.Data[i]
	}
	out.back = func() {
		a.accumulate(out.grad)
		b.accumulate(out.grad)
	}
	return out
}

// Mul returns the Hadamard (element-wise) product a ⊗ b.
func Mul(a, b *Tensor) *Tensor {
	a.Value.assertSameShape(b.Value, "Mul")
	out := newOp(a.Rows(), a.Cols(), a, b)
	hadamardInto(out.Value, a.Value, b.Value)
	out.back = func() {
		if a.requires {
			g := out.arena.get(out.grad.Rows, out.grad.Cols)
			hadamardInto(g, out.grad, b.Value)
			a.adopt(g)
		}
		if b.requires {
			g := out.arena.get(out.grad.Rows, out.grad.Cols)
			hadamardInto(g, out.grad, a.Value)
			b.adopt(g)
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
	out := newOp(a.Rows(), b.Cols(), a, b)
	MatMulInto(out.Value, a.Value, b.Value)
	out.back = func() {
		ar := out.arena
		if a.requires {
			bt := ar.get(b.Value.Cols, b.Value.Rows)
			b.Value.TransposedInto(bt)
			g := ar.get(out.grad.Rows, bt.Cols)
			MatMulInto(g, out.grad, bt)
			ar.put(bt)
			a.adopt(g)
		}
		if b.requires {
			at := ar.get(a.Value.Cols, a.Value.Rows)
			a.Value.TransposedInto(at)
			g := ar.get(at.Rows, out.grad.Cols)
			MatMulInto(g, at, out.grad)
			ar.put(at)
			b.adopt(g)
		}
	}
	return out
}

// Scale returns s·a for a fixed scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	out := newOp(a.Rows(), a.Cols(), a)
	for i, v := range a.Value.Data {
		out.Value.Data[i] = v * s
	}
	out.back = func() {
		g := out.arena.get(out.grad.Rows, out.grad.Cols)
		for i, v := range out.grad.Data {
			g.Data[i] = v * s
		}
		a.adopt(g)
	}
	return out
}

// AddScalar returns a + s applied element-wise for a fixed scalar s.
func AddScalar(a *Tensor, s float64) *Tensor {
	out := newOp(a.Rows(), a.Cols(), a)
	for i, v := range a.Value.Data {
		out.Value.Data[i] = v + s
	}
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
	out := newOp(a.Rows(), a.Cols(), a, bias)
	cols := a.Value.Cols
	for i := 0; i < len(a.Value.Data); i += cols {
		row := out.Value.Data[i : i+cols]
		for j, v := range a.Value.Data[i : i+cols] {
			row[j] = v + bias.Value.Data[j]
		}
	}
	out.back = func() {
		a.accumulate(out.grad)
		if bias.requires {
			bg := out.arena.get(1, cols)
			bg.Zero()
			for i := 0; i < len(out.grad.Data); i += cols {
				for j, g := range out.grad.Data[i : i+cols] {
					bg.Data[j] += g
				}
			}
			bias.adopt(bg)
		}
	}
	return out
}

// ReLU returns max(0, a) element-wise (the δ activation in Eq. 1).
func ReLU(a *Tensor) *Tensor {
	out := newOp(a.Rows(), a.Cols(), a)
	for i, x := range a.Value.Data {
		if x < 0 {
			x = 0
		}
		out.Value.Data[i] = x
	}
	out.back = func() {
		g := out.arena.get(out.grad.Rows, out.grad.Cols)
		copy(g.Data, out.grad.Data)
		for i, x := range a.Value.Data {
			if x <= 0 {
				g.Data[i] = 0
			}
		}
		a.adopt(g)
	}
	return out
}

// Sigmoid returns 1/(1+e^-a) element-wise; it produces the probability
// recommendations r̃_t and the preservation vector σ.
func Sigmoid(a *Tensor) *Tensor {
	out := newOp(a.Rows(), a.Cols(), a)
	for i, x := range a.Value.Data {
		out.Value.Data[i] = 1 / (1 + math.Exp(-x))
	}
	out.back = func() {
		g := out.arena.get(out.grad.Rows, out.grad.Cols)
		for i, s := range out.Value.Data {
			g.Data[i] = out.grad.Data[i] * (s * (1 - s))
		}
		a.adopt(g)
	}
	return out
}

// Tanh returns tanh(a) element-wise (used by the GRU cells of the recurrent
// baselines).
func Tanh(a *Tensor) *Tensor {
	out := newOp(a.Rows(), a.Cols(), a)
	for i, x := range a.Value.Data {
		out.Value.Data[i] = math.Tanh(x)
	}
	out.back = func() {
		g := out.arena.get(out.grad.Rows, out.grad.Cols)
		for i, th := range out.Value.Data {
			g.Data[i] = out.grad.Data[i] * (1 - th*th)
		}
		a.adopt(g)
	}
	return out
}

// Log returns the natural logarithm element-wise. Inputs are clamped below
// at 1e-12 so losses like -log σ(x) stay finite.
func Log(a *Tensor) *Tensor {
	const floor = 1e-12
	out := newOp(a.Rows(), a.Cols(), a)
	for i, x := range a.Value.Data {
		out.Value.Data[i] = math.Log(max(x, floor))
	}
	out.back = func() {
		g := out.arena.get(out.grad.Rows, out.grad.Cols)
		for i, x := range a.Value.Data {
			g.Data[i] = out.grad.Data[i] / max(x, floor)
		}
		a.adopt(g)
	}
	return out
}

// Sum reduces a to a 1×1 scalar: the terminal op of every loss.
func Sum(a *Tensor) *Tensor {
	out := newOp(1, 1, a)
	out.Value.Data[0] = a.Value.Sum()
	out.back = func() {
		g := out.arena.get(a.Value.Rows, a.Value.Cols)
		for i := range g.Data {
			g.Data[i] = out.grad.Data[0]
		}
		a.adopt(g)
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
	rows, cols := ts[0].Rows(), 0
	for _, t := range ts {
		if t.Rows() != rows {
			panic(fmt.Sprintf("tensor: Concat row mismatch %d vs %d", t.Rows(), rows))
		}
		cols += t.Cols()
	}
	out := newOp(rows, cols, ts...)
	off := 0
	for _, t := range ts {
		c := t.Cols()
		for i := 0; i < rows; i++ {
			copy(out.Value.Data[i*cols+off:i*cols+off+c], t.Value.Data[i*c:(i+1)*c])
		}
		off += c
	}
	out.back = func() {
		off := 0
		for _, t := range ts {
			c := t.Cols()
			if t.requires {
				g := out.arena.get(rows, c)
				for i := 0; i < rows; i++ {
					copy(g.Data[i*c:(i+1)*c], out.grad.Data[i*cols+off:i*cols+off+c])
				}
				t.adopt(g)
			}
			off += c
		}
	}
	return out
}

// Detach returns a constant tensor holding a heap copy of a's current
// value, cutting the gradient flow; the copy outlives the arena reset of a's
// graph, which is how truncated BPTT carries r_{t-1} and h_{t-1} over.
func Detach(a *Tensor) *Tensor { return Constant(a.Value.Clone()) }
