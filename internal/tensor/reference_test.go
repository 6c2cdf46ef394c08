package tensor

import (
	"math"
	"testing"
)

// refSpMM is the scalar sparse product the kernels are held to: row by row,
// each output row accumulates the row's stored nonzeros in ascending order
// from zero, skipping zero values and adding implicit ones without a
// multiply.
func refSpMM(a *CSR, x *Matrix) *Matrix {
	if a.Cols != x.Rows {
		panic("tensor: refSpMM shape mismatch")
	}
	dst := NewMatrix(a.Rows, x.Cols)
	d := x.Cols
	for i := 0; i < a.Rows; i++ {
		outRow := dst.Data[i*d : (i+1)*d]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			v := a.at(k)
			if v == 0 {
				continue
			}
			xRow := x.Data[int(a.Col[k])*d : (int(a.Col[k])+1)*d]
			if v == 1 {
				for j, xv := range xRow {
					outRow[j] += xv
				}
				continue
			}
			for j, xv := range xRow {
				outRow[j] += v * xv
			}
		}
	}
	return dst
}

// refMatMul is the scalar dense product the kernels are held to: the ikj
// loop from a zero result, skipping zero left-hand entries.
func refMatMul(m, n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic("tensor: refMatMul shape mismatch")
	}
	dst := NewMatrix(m.Rows, n.Cols)
	// ikj loop order keeps the inner loop sequential over both n and dst.
	for i := 0; i < m.Rows; i++ {
		mRow := m.Data[i*m.Cols : (i+1)*m.Cols]
		outRow := dst.Data[i*n.Cols : (i+1)*n.Cols]
		for k, mv := range mRow {
			if mv == 0 {
				continue
			}
			nRow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for j, nv := range nRow {
				outRow[j] += mv * nv
			}
		}
	}
	return dst
}

// f64 views m as the float64 kernels' operand type.
func f64(m *Matrix) *Dense[float64] { return (*Dense[float64])(m) }

// colBlock copies column block b (width d) of x into its own matrix.
func colBlock(x *Matrix, b, d int) *Matrix {
	out := NewMatrix(x.Rows, d)
	for i := 0; i < x.Rows; i++ {
		copy(out.Data[i*d:(i+1)*d], x.Data[i*x.Cols+b*d:i*x.Cols+(b+1)*d])
	}
	return out
}

// sameBits fails t unless got's column block b (width want.Cols) equals want
// in every bit.
func sameBits(t *testing.T, name string, got *Matrix, b int, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows {
		t.Fatalf("%s: %d rows, reference has %d", name, got.Rows, want.Rows)
	}
	d := want.Cols
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < d; j++ {
			g, w := got.Data[i*got.Cols+b*d+j], want.Data[i*d+j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: block %d (%d,%d) = %v, reference %v", name, b, i, j, g, w)
			}
		}
	}
}
