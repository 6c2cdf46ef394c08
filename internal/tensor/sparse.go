package tensor

import (
	"fmt"
	"sync"
)

// CSR is a compressed-sparse-row matrix: the sparse counterpart of Matrix
// used for occlusion adjacencies, whose edge count E is far below N² in real
// DOG frames. Row i's structural nonzeros are Col[RowPtr[i]:RowPtr[i+1]]
// (ascending column order by convention); Val holds the matching values, or
// is nil for a binary pattern whose nonzeros are implicitly 1 — the
// adjacency case, where the occlusion converter writes the CSR directly and
// its neighbor lists are views of Col.
//
// Message passing is a per-edge computation, so every kernel here is O(E·d)
// instead of the O(N²·d) a densified adjacency costs; that asymptotic gap is
// what lets POSHGNN step 2000-user rooms (see `aftersim -exp scale`).
type CSR struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries; RowPtr[0] == 0 and RowPtr[Rows] == NNZ().
	RowPtr []int32
	// Col holds the column index of every structural nonzero, row-major.
	Col []int32
	// Val holds the nonzero values, or nil for an implicit all-ones pattern.
	Val []float64
	// Symmetric records that the matrix equals its transpose (pattern and
	// values), letting T return the receiver itself: the occlusion adjacency
	// is symmetric, so SpMM's backward pass reuses the forward CSR.
	Symmetric bool

	transOnce sync.Once
	trans     *CSR
	rnOnce    sync.Once
	rn        *CSR
}

// NewCSR validates and wraps the given CSR arrays without copying them. Val
// may be nil (implicit ones). symmetric declares A == Aᵀ; the constructor
// trusts the caller (the occlusion converter emits both edge directions).
func NewCSR(rows, cols int, rowPtr, col []int32, val []float64, symmetric bool) *CSR {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid CSR shape %dx%d", rows, cols))
	}
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("tensor: CSR RowPtr length %d for %d rows", len(rowPtr), rows))
	}
	if rowPtr[0] != 0 || int(rowPtr[rows]) != len(col) {
		panic(fmt.Sprintf("tensor: CSR RowPtr bounds [%d,%d] for %d nonzeros", rowPtr[0], rowPtr[rows], len(col)))
	}
	if val != nil && len(val) != len(col) {
		panic(fmt.Sprintf("tensor: CSR Val length %d for %d nonzeros", len(val), len(col)))
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, Col: col, Val: val, Symmetric: symmetric}
}

// CSRFromDense extracts the nonzero structure of m. Exact zeros are dropped;
// everything else is kept with its value. Intended for tests and small
// compatibility shims, not hot paths.
func CSRFromDense(m *Matrix) *CSR {
	rowPtr := make([]int32, m.Rows+1)
	var col []int32
	var val []float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.Data[i*m.Cols+j]; v != 0 {
				col = append(col, int32(j))
				val = append(val, v)
			}
		}
		rowPtr[i+1] = int32(len(col))
	}
	return NewCSR(m.Rows, m.Cols, rowPtr, col, val, false)
}

// NNZ returns the number of structural nonzeros.
func (c *CSR) NNZ() int { return len(c.Col) }

// EdgeCount returns the undirected edge count of a symmetric 0/1 adjacency
// pattern: NNZ/2, since the converter stores both directions of every edge.
// It panics for non-symmetric matrices, where the notion is undefined.
func (c *CSR) EdgeCount() int {
	if !c.Symmetric {
		panic("tensor: EdgeCount on non-symmetric CSR")
	}
	return c.NNZ() / 2
}

// at returns the value of the k-th stored nonzero.
func (c *CSR) at(k int32) float64 {
	if c.Val == nil {
		return 1
	}
	return c.Val[k]
}

// Dense materializes the CSR as a dense matrix (tests and compat paths).
func (c *CSR) Dense() *Matrix {
	m := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			m.Data[i*c.Cols+int(c.Col[k])] = c.at(k)
		}
	}
	return m
}

// T returns the transpose. Symmetric matrices return the receiver (zero
// cost — this is the property the autodiff backward pass exploits for
// adjacencies); otherwise the transpose is built once with a counting sort
// and memoized, so repeated backward passes through one frame pay for it a
// single time.
func (c *CSR) T() *CSR {
	if c.Symmetric {
		return c
	}
	c.transOnce.Do(func() {
		rowPtr := make([]int32, c.Cols+1)
		for _, j := range c.Col {
			rowPtr[j+1]++
		}
		for j := 0; j < c.Cols; j++ {
			rowPtr[j+1] += rowPtr[j]
		}
		col := make([]int32, len(c.Col))
		var val []float64
		if c.Val != nil {
			val = make([]float64, len(c.Val))
		}
		cursor := make([]int32, c.Cols)
		copy(cursor, rowPtr[:c.Cols])
		for i := 0; i < c.Rows; i++ {
			for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
				j := c.Col[k]
				col[cursor[j]] = int32(i)
				if val != nil {
					val[cursor[j]] = c.Val[k]
				}
				cursor[j]++
			}
		}
		c.trans = NewCSR(c.Cols, c.Rows, rowPtr, col, val, false)
	})
	return c.trans
}

// RowNormalized returns D⁻¹·A, the random-walk transition matrix over the
// pattern of c (rows with no nonzeros stay zero). The result shares c's
// structure arrays, carries explicit values, and is memoized — DCRNN asks
// for it once per step while several steps share one frame. The result is
// not symmetric even when c is; its transpose is built lazily by T.
func (c *CSR) RowNormalized() *CSR {
	c.rnOnce.Do(func() {
		val := make([]float64, len(c.Col))
		for i := 0; i < c.Rows; i++ {
			lo, hi := c.RowPtr[i], c.RowPtr[i+1]
			rowSum := 0.0
			for k := lo; k < hi; k++ {
				rowSum += c.at(k)
			}
			if rowSum == 0 {
				continue
			}
			inv := 1 / rowSum
			for k := lo; k < hi; k++ {
				val[k] = c.at(k) * inv
			}
		}
		c.rn = NewCSR(c.Rows, c.Cols, c.RowPtr, c.Col, val, false)
	})
	return c.rn
}

// spmmParallelCutoff is the multiply-add count below which an SpMM stays on
// the calling goroutine: tiny products (the hidden dimension is 8 and most
// rooms have a few thousand edges) lose more to fan-out overhead than the
// extra cores return. Above it, rows are split into contiguous blocks over
// the shared worker pool; each block owns disjoint dst rows, so the result
// is bit-identical for every worker count.
const spmmParallelCutoff = 1 << 18

// SpMM returns a·x as a new dense matrix, where a is Rows×Cols sparse and x
// is Cols×d dense.
func SpMM(a *CSR, x *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, x.Cols)
	SpMMInto(dst, a, x)
	return dst
}

// SpMMInto computes a·x into dst (a.Rows×x.Cols, fully overwritten): the
// one-graph face of F64.SpMMBatchInto. Cost is O(NNZ·d); large products are
// row-parallel over the internal/parallel pool.
func SpMMInto(dst *Matrix, a *CSR, x *Matrix) {
	F64.SpMMBatchInto((*Dense[float64])(dst), []*CSR{a}, (*Dense[float64])(x))
}

// SpMMT returns the autodiff node for a·x with a constant sparse a: the
// sparse counterpart of MatMulT(Constant(adj), x). The backward pass is
// ∂L/∂x = Aᵀ·∂L/∂out, computed with the same SpMM kernel over a.T() — which
// is a itself for the symmetric occlusion adjacency, so no transpose is ever
// materialized on the training path.
func SpMMT(a *CSR, x *Tensor) *Tensor {
	out := newOp(a.Rows, x.Cols(), x)
	SpMMInto(out.Value, a, x.Value)
	out.back = func() {
		g := out.arena.get(a.Cols, out.grad.Cols)
		SpMMInto(g, a.T(), out.grad)
		x.adopt(g)
	}
	return out
}

// QuadraticFormCSR returns the scalar rᵀ·A·r for a column vector tensor r
// and a constant sparse A — the occlusion penalty of the POSHGNN loss,
// evaluated per-edge in O(E). The gradient is (A+Aᵀ)·r, which collapses to
// 2·A·r for the symmetric adjacency. The backward pass recomputes A·r, so
// the node holds no buffer but its value and gradient.
func QuadraticFormCSR(r *Tensor, a *CSR) *Tensor {
	if r.Value.Cols != 1 || a.Rows != a.Cols || a.Rows != r.Value.Rows {
		panic(fmt.Sprintf("tensor: QuadraticFormCSR r %dx%d, A %dx%d",
			r.Value.Rows, r.Value.Cols, a.Rows, a.Cols))
	}
	out := newOp(1, 1, r)
	ar := out.arena.get(a.Rows, 1)
	SpMMInto(ar, a, r.Value)
	v := 0.0
	for i, ri := range r.Value.Data {
		v += ri * ar.Data[i]
	}
	out.Value.Data[0] = v
	out.arena.put(ar)
	out.back = func() {
		ar, g := out.arena.get(a.Rows, 1), out.arena.get(a.Rows, 1)
		SpMMInto(ar, a, r.Value)
		if a.Symmetric {
			for i := range g.Data {
				g.Data[i] = 2 * ar.Data[i] * out.grad.Data[0]
			}
		} else {
			atr := out.arena.get(a.Cols, 1)
			SpMMInto(atr, a.T(), r.Value)
			for i := range g.Data {
				g.Data[i] = (ar.Data[i] + atr.Data[i]) * out.grad.Data[0]
			}
			out.arena.put(atr)
		}
		out.arena.put(ar)
		r.adopt(g)
	}
	return out
}
