package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad computes the finite-difference gradient of f with respect to
// the entries of m, where f rebuilds and evaluates the scalar loss from the
// current contents of m.
func numericalGrad(m *Matrix, f func() float64) *Matrix {
	const h = 1e-6
	g := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		orig := m.Data[i]
		m.Data[i] = orig + h
		fp := f()
		m.Data[i] = orig - h
		fm := f()
		m.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

func checkGrad(t *testing.T, name string, analytic, numeric *Matrix) {
	t.Helper()
	if analytic == nil {
		t.Fatalf("%s: analytic gradient is nil", name)
	}
	for i := range numeric.Data {
		diff := math.Abs(analytic.Data[i] - numeric.Data[i])
		scale := 1 + math.Abs(numeric.Data[i])
		if diff/scale > 1e-4 {
			t.Fatalf("%s: grad[%d] analytic=%v numeric=%v", name, i, analytic.Data[i], numeric.Data[i])
		}
	}
}

func TestGradMatMulSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 3, 4, 1)
	b := Randn(rng, 4, 2, 1)
	ta, tb := Variable(a), Variable(b)
	loss := Sum(MatMulT(ta, tb))
	Backward(loss)
	f := func() float64 { return matMul(a, b).Sum() }
	checkGrad(t, "matmul/a", ta.Grad(), numericalGrad(a, f))
	checkGrad(t, "matmul/b", tb.Grad(), numericalGrad(b, f))
}

func TestGradSigmoidChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 4, 3, 1)
	ta := Variable(a)
	loss := Sum(Sigmoid(ta))
	Backward(loss)
	f := func() float64 {
		s := 0.0
		for _, v := range a.Data {
			s += 1 / (1 + math.Exp(-v))
		}
		return s
	}
	checkGrad(t, "sigmoid", ta.Grad(), numericalGrad(a, f))
}

func TestGradReLU(t *testing.T) {
	a := FromSlice(1, 4, []float64{-2, -0.5, 0.5, 2})
	ta := Variable(a)
	Backward(Sum(ReLU(ta)))
	want := []float64{0, 0, 1, 1}
	for i, w := range want {
		if ta.Grad().Data[i] != w {
			t.Errorf("relu grad[%d] = %v, want %v", i, ta.Grad().Data[i], w)
		}
	}
}

func TestGradTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 2, 5, 1)
	ta := Variable(a)
	Backward(Sum(Tanh(ta)))
	f := func() float64 {
		s := 0.0
		for _, v := range a.Data {
			s += math.Tanh(v)
		}
		return s
	}
	checkGrad(t, "tanh", ta.Grad(), numericalGrad(a, f))
}

func TestGradHadamardAndAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 3, 3, 1)
	b := Randn(rng, 3, 3, 1)
	ta, tb := Variable(a), Variable(b)
	loss := Sum(Mul(Add(ta, tb), ta)) // sum((a+b)⊙a)
	Backward(loss)
	f := func() float64 {
		s := 0.0
		for i := range a.Data {
			s += (a.Data[i] + b.Data[i]) * a.Data[i]
		}
		return s
	}
	checkGrad(t, "hadamard/a", ta.Grad(), numericalGrad(a, f))
	checkGrad(t, "hadamard/b", tb.Grad(), numericalGrad(b, f))
}

func TestGradSub(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 2, 2, 1)
	b := Randn(rng, 2, 2, 1)
	ta, tb := Variable(a), Variable(b)
	Backward(Sum(Mul(Add(ta, Scale(tb, -1)), Add(ta, Scale(tb, -1))))) // sum((a-b)²)
	f := func() float64 {
		s := 0.0
		for i := range a.Data {
			d := a.Data[i] - b.Data[i]
			s += d * d
		}
		return s
	}
	checkGrad(t, "sub/a", ta.Grad(), numericalGrad(a, f))
	checkGrad(t, "sub/b", tb.Grad(), numericalGrad(b, f))
}

func TestGradRowBroadcastBias(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Randn(rng, 4, 3, 1)
	bias := Randn(rng, 1, 3, 1)
	tx, tbias := Variable(x), Variable(bias)
	Backward(Sum(Sigmoid(AddRowBroadcast(tx, tbias))))
	f := func() float64 {
		s := 0.0
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				s += 1 / (1 + math.Exp(-(x.At(i, j) + bias.Data[j])))
			}
		}
		return s
	}
	checkGrad(t, "bias/x", tx.Grad(), numericalGrad(x, f))
	checkGrad(t, "bias/b", tbias.Grad(), numericalGrad(bias, f))
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 3, 2, 1)
	b := Randn(rng, 3, 1, 1)
	w := Randn(rng, 3, 1, 1)
	ta, tb := Variable(a), Variable(b)
	// loss = sum((concat(a,b)·w_fixed)²) exercises column routing in backward.
	cat := Concat(ta, tb)
	prod := MatMulT(cat, Constant(w))
	Backward(Sum(Mul(prod, prod)))
	f := func() float64 {
		s := 0.0
		for i := 0; i < 3; i++ {
			row := a.At(i, 0)*w.Data[0] + a.At(i, 1)*w.Data[1] + b.At(i, 0)*w.Data[2]
			s += row * row
		}
		return s
	}
	checkGrad(t, "concat/a", ta.Grad(), numericalGrad(a, f))
	checkGrad(t, "concat/b", tb.Grad(), numericalGrad(b, f))
}

func TestGradAccumulatesOverReuse(t *testing.T) {
	// y = sum(a) + sum(a) should give gradient 2 everywhere.
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	ta := Variable(a)
	Backward(Add(Sum(ta), Sum(ta)))
	for i, g := range ta.Grad().Data {
		if g != 2 {
			t.Fatalf("grad[%d] = %v, want 2", i, g)
		}
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	a := Constant(Ones(2, 2))
	b := Variable(Ones(2, 2))
	Backward(Sum(Mul(a, b)))
	if a.Grad() != nil {
		t.Error("constant accumulated a gradient")
	}
	if b.Grad() == nil {
		t.Error("variable missing gradient")
	}
}

func TestZeroGradResets(t *testing.T) {
	a := Variable(Ones(1, 3))
	Backward(Sum(a))
	if a.Grad() == nil {
		t.Fatal("no grad")
	}
	a.ZeroGrad()
	if a.Grad() != nil {
		t.Error("ZeroGrad did not clear")
	}
	Backward(Sum(Scale(a, 3)))
	for _, g := range a.Grad().Data {
		if g != 3 {
			t.Fatalf("stale gradient after reset: %v", g)
		}
	}
}

func TestDetachStopsGradient(t *testing.T) {
	a := Variable(Ones(2, 1))
	d := Detach(Scale(a, 2))
	b := Variable(Ones(2, 1))
	Backward(Sum(Mul(d, b)))
	if a.Grad() != nil {
		t.Error("gradient leaked through Detach")
	}
	if b.Grad() == nil {
		t.Error("variable after detach missing gradient")
	}
}

func TestMeanGrad(t *testing.T) {
	a := Variable(Ones(2, 3))
	Backward(Mean(a))
	for _, g := range a.Grad().Data {
		if math.Abs(g-1.0/6.0) > 1e-12 {
			t.Fatalf("mean grad = %v", g)
		}
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Backward(Variable(Ones(2, 2)))
}

func TestDeepChainStability(t *testing.T) {
	// A deep diamond-shaped graph must not blow the stack or double-count.
	rng := rand.New(rand.NewSource(9))
	a := Variable(Randn(rng, 4, 4, 0.1))
	x := a
	for i := 0; i < 200; i++ {
		x = Add(Scale(x, 0.5), Scale(x, 0.5)) // identity, reusing x twice
	}
	Backward(Sum(x))
	for _, g := range a.Grad().Data {
		if math.Abs(g-1) > 1e-9 {
			t.Fatalf("deep chain grad = %v, want 1", g)
		}
	}
}
