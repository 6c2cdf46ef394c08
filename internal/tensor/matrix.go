// Package tensor implements the numerical substrate of the POSHGNN
// reproduction: dense row-major float64 matrices, CSR sparse matrices, a
// reverse-mode automatic-differentiation engine over them, and the SpMM and
// dense-product kernels (batch.go) that both training and inference run.
// SpMMInto and MatMulInto are the float64 kernel set F64's one-graph and
// one-block faces, so there is one float64 implementation of each product.
// A training run's tape draws its matrices from an Arena and the fused
// inference pass its scratch from a Pool (workspace.go).
//
// The networks in the paper are tiny (hidden dimension 8, two to three
// layers, at most a few hundred nodes per room), so CPU matrices reproduce
// training faithfully without any external framework.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero rows×cols matrix. It panics on non-positive
// dimensions, which always indicates a programming error in this codebase.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix backed by a copy of data, which must
// have exactly rows*cols elements in row-major order.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, data)
	return m
}

// FromColumn builds a len(v)×1 column vector from v.
func FromColumn(v []float64) *Matrix { return FromSlice(len(v), 1, v) }

// Ones returns a rows×cols matrix filled with 1.
func Ones(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}

// Randn fills a rows×cols matrix with values drawn from N(0, std²) using rng.
func Randn(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// GlorotUniform fills a rows×cols matrix with the Glorot/Xavier uniform
// initialization used by the paper's GNN layers.
func GlorotUniform(rng *rand.Rand, rows, cols int) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

func (m *Matrix) assertSameShape(n *Matrix, op string) {
	if !m.SameShape(n) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// AddInPlace adds n to m element-wise.
func (m *Matrix) AddInPlace(n *Matrix) {
	m.assertSameShape(n, "AddInPlace")
	for i, v := range n.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Zero resets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMulInto computes m·n into dst (m.Rows×n.Cols, fully overwritten): the
// one-block face of F64.MatMulBlocksInto, for scratch-buffer callers.
func MatMulInto(dst, m, n *Matrix) {
	F64.MatMulBlocksInto((*Dense[float64])(dst), (*Dense[float64])(m), (*Dense[float64])(n), 1)
}

// TransposedInto writes the transpose of m into dst (m.Cols×m.Rows).
func (m *Matrix) TransposedInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposedInto dst %dx%d for %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// HasNaN reports whether any element is NaN or infinite.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Col returns a copy of column j as a plain slice.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Row returns a copy of row i as a plain slice.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}
