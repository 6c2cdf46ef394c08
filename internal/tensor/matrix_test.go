package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matMul returns m·n through MatMulInto.
func matMul(m, n *Matrix) *Matrix {
	dst := NewMatrix(m.Rows, n.Cols)
	MatMulInto(dst, m, n)
	return dst
}

// transposed returns mᵀ through TransposedInto.
func transposed(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	m.TransposedInto(t)
	return t
}

// add returns m + n through the Add op.
func add(m, n *Matrix) *Matrix { return Add(Constant(m), Constant(n)).Value }

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 5, 5, 1)
	eye := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(i, i, 1)
	}
	c := matMul(a, eye)
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatalf("A·I != A at %d", i)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	matMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTransposedInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 4, 7, 1)
	b := transposed(transposed(a))
	if !a.SameShape(b) {
		t.Fatal("shape changed")
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("double transpose changed values")
		}
	}
}

func TestTransposeMatMulIdentityLaw(t *testing.T) {
	// (AB)ᵀ == BᵀAᵀ
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 3, 4, 1)
	b := Randn(rng, 4, 5, 1)
	lhs := transposed(matMul(a, b))
	rhs := matMul(transposed(b), transposed(a))
	for i := range lhs.Data {
		if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-12 {
			t.Fatal("(AB)ᵀ != BᵀAᵀ")
		}
	}
}

func TestAddSubHadamard(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	ta, tb := Constant(a), Constant(b)
	if got := Add(ta, tb).Value.Data; got[0] != 6 || got[3] != 12 {
		t.Errorf("Add = %v", got)
	}
	if got := Add(tb, Scale(ta, -1)).Value.Data; got[0] != 4 || got[3] != 4 {
		t.Errorf("b-a = %v", got)
	}
	if got := Mul(ta, tb).Value.Data; got[0] != 5 || got[3] != 32 {
		t.Errorf("Mul = %v", got)
	}
	// Inputs unchanged.
	if a.Data[0] != 1 || b.Data[0] != 5 {
		t.Error("inputs mutated")
	}
}

func TestConcatCols(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	c := Concat(Constant(a), Constant(b)).Value
	if c.Rows != 2 || c.Cols != 3 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
	want := []float64{1, 3, 4, 2, 5, 6}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Concat[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestRowColAccessors(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if r := m.Row(1); r[0] != 4 || r[2] != 6 {
		t.Errorf("Row = %v", r)
	}
	if c := m.Col(1); c[0] != 2 || c[1] != 5 {
		t.Errorf("Col = %v", c)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set failed")
	}
}

func TestSumAndMaxAbs(t *testing.T) {
	m := FromSlice(1, 4, []float64{1, -5, 2, 0})
	if m.Sum() != -2 {
		t.Errorf("Sum = %v", m.Sum())
	}
	if m.MaxAbs() != 5 {
		t.Errorf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestHasNaN(t *testing.T) {
	m := NewMatrix(2, 2)
	if m.HasNaN() {
		t.Error("zero matrix reports NaN")
	}
	m.Data[3] = math.Inf(1)
	if !m.HasNaN() {
		t.Error("inf not detected")
	}
	m.Data[3] = math.NaN()
	if !m.HasNaN() {
		t.Error("NaN not detected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := GlorotUniform(rng, 10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v outside Glorot limit %v", v, limit)
		}
	}
}

// Property: matrix addition commutes.
func TestAddCommutative(t *testing.T) {
	f := func(xs [6]float64, ys [6]float64) bool {
		a := FromSlice(2, 3, xs[:])
		b := FromSlice(2, 3, ys[:])
		l := add(a, b)
		r := add(b, a)
		for i := range l.Data {
			if l.Data[i] != r.Data[i] && !(math.IsNaN(l.Data[i]) && math.IsNaN(r.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the product distributes over addition: A(B+C) = AB + AC.
func TestMatMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		a := Randn(rng, 3, 4, 1)
		b := Randn(rng, 4, 2, 1)
		c := Randn(rng, 4, 2, 1)
		lhs := matMul(a, add(b, c))
		rhs := add(matMul(a, b), matMul(a, c))
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-10 {
				t.Fatalf("distribution law violated at trial %d", trial)
			}
		}
	}
}
