package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"after/internal/parallel"
)

// randomPattern builds a random n×n implicit-ones CSR with edge probability p.
func randomPattern(rng *rand.Rand, n int, p float64) *CSR {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				m.Data[i*n+j] = 1
			}
		}
	}
	c := CSRFromDense(m)
	c.Val = nil // implicit ones, like the occlusion adjacency
	return c
}

func randomDense(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestSpMMBatchIntoMatchesPerBlock pins the batched kernel to the scalar
// reference column block by column block, in every bit, across sizes and
// batch widths including K=1 and a shared-graph (wide-RHS) batch.
func TestSpMMBatchIntoMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, k, d int }{
		{1, 1, 1}, {5, 1, 4}, {12, 3, 4}, {40, 16, 8}, {33, 7, 5},
	} {
		graphs := make([]*CSR, tc.k)
		shared := randomPattern(rng, tc.n, 0.2)
		for b := range graphs {
			if b%2 == 0 {
				graphs[b] = randomPattern(rng, tc.n, 0.15)
			} else {
				graphs[b] = shared // exercise aliased graphs in one batch
			}
		}
		x := randomDense(rng, tc.n, tc.k*tc.d)
		dst := NewMatrix(tc.n, tc.k*tc.d)
		F64.SpMMBatchInto(f64(dst), graphs, f64(x))
		for b := 0; b < tc.k; b++ {
			name := fmt.Sprintf("n=%d k=%d d=%d", tc.n, tc.k, tc.d)
			sameBits(t, name, dst, b, refSpMM(graphs[b], colBlock(x, b, tc.d)))
		}
	}
}

// TestMatMulBlocksIntoMatchesPerBlock pins the blocked dense projection to
// the scalar reference per column block, in every bit.
func TestMatMulBlocksIntoMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ n, k, din, dout int }{
		{1, 1, 1, 1}, {6, 1, 4, 8}, {17, 5, 16, 8}, {50, 16, 8, 1},
	} {
		w := randomDense(rng, tc.din, tc.dout)
		x := randomDense(rng, tc.n, tc.k*tc.din)
		// Sprinkle exact zeros so the mv==0 skip path is exercised.
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = 0
		}
		dst := NewMatrix(tc.n, tc.k*tc.dout)
		F64.MatMulBlocksInto(f64(dst), f64(x), f64(w), tc.k)
		for b := 0; b < tc.k; b++ {
			name := fmt.Sprintf("n=%d k=%d din=%d dout=%d", tc.n, tc.k, tc.din, tc.dout)
			sameBits(t, name, dst, b, refMatMul(colBlock(x, b, tc.din), w))
		}
	}
}

// TestBatchKernelsWorkerInvariant: the row-parallel split must not change a
// single bit of the result (disjoint contiguous row blocks).
func TestBatchKernelsWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, k, d := 300, 16, 8 // big enough to clear the parallel cutoffs
	graphs := make([]*CSR, k)
	for b := range graphs {
		graphs[b] = randomPattern(rng, n, 0.1)
	}
	x := randomDense(rng, n, k*d)
	w := randomDense(rng, d, d)
	run := func() (*Matrix, *Matrix) {
		sp := NewMatrix(n, k*d)
		F64.SpMMBatchInto(f64(sp), graphs, f64(x))
		mm := NewMatrix(n, k*d)
		F64.MatMulBlocksInto(f64(mm), f64(x), f64(w), k)
		return sp, mm
	}
	var sp1, mm1, sp8, mm8 *Matrix
	parallel.WithLimit(1, func() { sp1, mm1 = run() })
	parallel.WithLimit(8, func() { sp8, mm8 = run() })
	for i := range sp1.Data {
		if sp1.Data[i] != sp8.Data[i] {
			t.Fatalf("SpMMBatchInto workers=1 vs 8 differ at %d: %v vs %v", i, sp1.Data[i], sp8.Data[i])
		}
	}
	for i := range mm1.Data {
		if mm1.Data[i] != mm8.Data[i] {
			t.Fatalf("MatMulBlocksInto workers=1 vs 8 differ at %d: %v vs %v", i, mm1.Data[i], mm8.Data[i])
		}
	}
}

// TestFloat32KernelsNearFloat64: the f32 kernels agree with the f64 oracles
// to single-precision relative error. These are small reductions (≤ a few
// hundred terms), so 1e-4 relative against the magnitude scale is generous
// yet would still catch any indexing or accumulation bug.
func TestFloat32KernelsNearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, k, d := 80, 8, 8
	graphs := make([]*CSR, k)
	for b := range graphs {
		graphs[b] = randomPattern(rng, n, 0.15)
	}
	x := randomDense(rng, n, k*d)
	w := randomDense(rng, d, d)
	x32 := &Matrix32{Rows: x.Rows, Cols: x.Cols, Data: make([]float32, len(x.Data))}
	for i, v := range x.Data {
		x32.Data[i] = float32(v)
	}
	w32 := ToMatrix32(w)

	sp := NewMatrix(n, k*d)
	F64.SpMMBatchInto(f64(sp), graphs, f64(x))
	sp32 := NewMatrix32(n, k*d)
	F32.SpMMBatchInto(sp32, graphs, x32)
	mm := NewMatrix(n, k*d)
	F64.MatMulBlocksInto(f64(mm), f64(x), f64(w), k)
	mm32 := NewMatrix32(n, k*d)
	F32.MatMulBlocksInto(mm32, x32, w32, k)

	check := func(name string, f64 []float64, f32 []float32) {
		scale := 1.0
		for _, v := range f64 {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range f64 {
			if diff := math.Abs(f64[i] - float64(f32[i])); diff > 1e-4*scale {
				t.Fatalf("%s: f32 diverges at %d: %v vs %v (diff %v, scale %v)",
					name, i, f32[i], f64[i], diff, scale)
			}
		}
	}
	check("SpMMBatch", sp.Data, sp32.Data)
	check("MatMulBlocks", mm.Data, mm32.Data)
}

// TestBatchKernelShapePanics: malformed shapes must fail loudly.
func TestBatchKernelShapePanics(t *testing.T) {
	g := randomPattern(rand.New(rand.NewSource(1)), 4, 0.5)
	x := NewMatrix(4, 6)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("uneven blocks", func() { F64.SpMMBatchInto(f64(NewMatrix(4, 6)), []*CSR{g, g, g, g}, f64(x)) })
	mustPanic("bad dst", func() { F64.SpMMBatchInto(f64(NewMatrix(3, 6)), []*CSR{g, g}, f64(x)) })
	mustPanic("bad graph", func() { F64.SpMMBatchInto(f64(NewMatrix(5, 6)), []*CSR{g, g}, f64(NewMatrix(5, 6))) })
	mustPanic("bad width", func() { F64.MatMulBlocksInto(f64(NewMatrix(4, 6)), f64(x), f64(NewMatrix(4, 3)), 2) })
}
