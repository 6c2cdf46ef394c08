package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"after/internal/parallel"
)

// randomSymmetricAdjacency builds a random 0/1 symmetric pattern (zero
// diagonal, both edge directions stored) of size n with edge probability p,
// returning it both dense and as an implicit-ones CSR.
func randomSymmetricAdjacency(rng *rand.Rand, n int, p float64) (*Matrix, *CSR) {
	dense := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				dense.Set(i, j, 1)
				dense.Set(j, i, 1)
			}
		}
	}
	rowPtr := make([]int32, n+1)
	var col []int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if dense.At(i, j) != 0 {
				col = append(col, int32(j))
			}
		}
		rowPtr[i+1] = int32(len(col))
	}
	return dense, NewCSR(n, n, rowPtr, col, nil, true)
}

func maxAbsDiff(a, b *Matrix) float64 {
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// TestSpMMMatchesDense holds SpMM over implicit-ones symmetric patterns to
// the scalar sparse reference and to the dense product over the same
// adjacency, in every bit.
func TestSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 40} {
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			dense, csr := randomSymmetricAdjacency(rng, n, p)
			x := Randn(rng, n, 5, 1)
			got := SpMM(csr, x)
			name := fmt.Sprintf("n=%d p=%v", n, p)
			sameBits(t, name+" vs sparse reference", got, 0, refSpMM(csr, x))
			sameBits(t, name+" vs dense reference", got, 0, refMatMul(dense, x))
			if csr.NNZ() != int(csr.RowPtr[n]) {
				t.Fatalf("NNZ inconsistent with RowPtr")
			}
		}
	}
}

// TestSpMMWeightedAndRectangular covers explicit values and a non-square
// CSR, and the CSR↔dense round trip.
func TestSpMMWeightedAndRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dense := NewMatrix(6, 9)
	for i := range dense.Data {
		if rng.Float64() < 0.3 {
			dense.Data[i] = rng.NormFloat64()
		}
	}
	csr := CSRFromDense(dense)
	x := Randn(rng, 9, 4, 1)
	got := SpMM(csr, x)
	sameBits(t, "weighted vs sparse reference", got, 0, refSpMM(csr, x))
	sameBits(t, "weighted vs dense reference", got, 0, refMatMul(dense, x))
	// Round-trip: Dense(CSRFromDense(m)) == m.
	if d := maxAbsDiff(csr.Dense(), dense); d != 0 {
		t.Fatalf("dense round-trip differs by %g", d)
	}
}

func TestSpMMParallelPathMatchesSequential(t *testing.T) {
	// Big enough to cross spmmParallelCutoff: nnz*d >= 2^18.
	rng := rand.New(rand.NewSource(13))
	n := 600
	dense, csr := randomSymmetricAdjacency(rng, n, 0.1) // ~36k nnz
	x := Randn(rng, n, 8, 1)
	if csr.NNZ()*x.Cols < spmmParallelCutoff {
		t.Fatalf("test instance too small to exercise the parallel path: %d", csr.NNZ()*x.Cols)
	}
	var seq, par *Matrix
	parallel.WithLimit(1, func() { seq = SpMM(csr, x) })
	parallel.WithLimit(8, func() { par = SpMM(csr, x) })
	sameBits(t, "parallel vs sequential", par, 0, seq)
	sameBits(t, "parallel vs sparse reference", par, 0, refSpMM(csr, x))
	sameBits(t, "parallel vs dense reference", par, 0, refMatMul(dense, x))
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dense := NewMatrix(5, 8)
	for i := range dense.Data {
		if rng.Float64() < 0.4 {
			dense.Data[i] = rng.NormFloat64()
		}
	}
	csr := CSRFromDense(dense)
	if d := maxAbsDiff(csr.T().Dense(), transposed(dense)); d != 0 {
		t.Fatalf("transpose differs by %g", d)
	}
	if csr.T() != csr.T() {
		t.Error("transpose not memoized")
	}
	_, sym := randomSymmetricAdjacency(rng, 6, 0.5)
	if sym.T() != sym {
		t.Error("symmetric CSR must return itself from T")
	}
}

func TestCSRRowNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dense, csr := randomSymmetricAdjacency(rng, 10, 0.3)
	rn := csr.RowNormalized()
	if rn != csr.RowNormalized() {
		t.Error("RowNormalized not memoized")
	}
	if rn.Symmetric {
		t.Error("row-normalized matrix must not claim symmetry")
	}
	got := rn.Dense()
	for i := 0; i < 10; i++ {
		deg := 0.0
		for j := 0; j < 10; j++ {
			deg += dense.At(i, j)
		}
		for j := 0; j < 10; j++ {
			want := 0.0
			if deg > 0 {
				want = dense.At(i, j) / deg
			}
			if math.Abs(got.At(i, j)-want) > 1e-15 {
				t.Fatalf("rowNorm[%d,%d] = %v, want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestCSREdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dense, csr := randomSymmetricAdjacency(rng, 12, 0.4)
	want := 0
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if dense.At(i, j) != 0 {
				want++
			}
		}
	}
	if got := csr.EdgeCount(); got != want {
		t.Fatalf("EdgeCount = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("EdgeCount on non-symmetric CSR must panic")
		}
	}()
	CSRFromDense(dense).EdgeCount()
}

// TestGradSpMM is the finite-difference check on SpMM's backward pass for
// both the symmetric adjacency (Aᵀ reuse) and a genuinely non-symmetric
// weighted matrix (explicit transpose path).
func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	denseSym, sym := randomSymmetricAdjacency(rng, 7, 0.4)
	x := Randn(rng, 7, 3, 1)
	tx := Variable(x)
	// Loss = sum((A·x) ⊗ (A·x)) exercises a non-uniform upstream gradient.
	ax := SpMMT(sym, tx)
	Backward(Sum(Mul(ax, ax)))
	f := func() float64 {
		m := matMul(denseSym, x)
		s := 0.0
		for _, v := range m.Data {
			s += v * v
		}
		return s
	}
	checkGrad(t, "spmm-sym/x", tx.Grad(), numericalGrad(x, f))

	denseW := NewMatrix(5, 6)
	for i := range denseW.Data {
		if rng.Float64() < 0.4 {
			denseW.Data[i] = rng.NormFloat64()
		}
	}
	w := CSRFromDense(denseW)
	y := Randn(rng, 6, 2, 1)
	ty := Variable(y)
	ay := SpMMT(w, ty)
	Backward(Sum(Mul(ay, ay)))
	g := func() float64 {
		m := matMul(denseW, y)
		s := 0.0
		for _, v := range m.Data {
			s += v * v
		}
		return s
	}
	checkGrad(t, "spmm-weighted/y", ty.Grad(), numericalGrad(y, g))
}

// denseQuadForm is the dense reference rᵀ·(A·r).
func denseQuadForm(a, r *Matrix) float64 {
	ar := refMatMul(a, r)
	s := 0.0
	for i := range r.Data {
		s += r.Data[i] * ar.Data[i]
	}
	return s
}

// TestGradQuadraticFormCSR checks QuadraticFormCSR's gradient against finite
// differences on both paths: the symmetric adjacency's 2·A·r and the
// general (A+Aᵀ)·r over the memoized transpose. The non-symmetric value must
// equal the dense rᵀ(A·r) in every bit.
func TestGradQuadraticFormCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	denseSym, sym := randomSymmetricAdjacency(rng, 8, 0.4)
	r := Randn(rng, 8, 1, 1)
	tr := Variable(r)
	Backward(QuadraticFormCSR(tr, sym))
	checkGrad(t, "quadform-csr-sym", tr.Grad(), numericalGrad(r, func() float64 { return denseQuadForm(denseSym, r) }))

	denseW := NewMatrix(6, 6)
	for i := range denseW.Data {
		if rng.Float64() < 0.4 {
			denseW.Data[i] = rng.NormFloat64()
		}
	}
	w := CSRFromDense(denseW)
	r2 := Randn(rng, 6, 1, 1)
	tr2 := Variable(r2)
	loss := QuadraticFormCSR(tr2, w)
	if got, want := loss.Value.Data[0], denseQuadForm(denseW, r2); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("non-symmetric rᵀAr %v, dense %v", got, want)
	}
	Backward(loss)
	checkGrad(t, "quadform-csr-nonsym", tr2.Grad(), numericalGrad(r2, func() float64 { return denseQuadForm(denseW, r2) }))
}

func TestQuadraticFormCSRMatchesDenseValue(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dense, csr := randomSymmetricAdjacency(rng, 15, 0.3)
	r := Randn(rng, 15, 1, 1)
	got := QuadraticFormCSR(Constant(r), csr).Value.Data[0]
	if want := denseQuadForm(dense, r); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("rᵀAr sparse %v vs dense %v", got, want)
	}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []func(){
		func() { NewCSR(0, 1, []int32{0}, nil, nil, false) },
		func() { NewCSR(2, 2, []int32{0, 1}, []int32{0}, nil, false) },       // short RowPtr
		func() { NewCSR(2, 2, []int32{0, 1, 3}, []int32{0, 1}, nil, false) }, // bad bound
		func() { NewCSR(1, 1, []int32{0, 1}, []int32{0}, []float64{1, 2}, false) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
