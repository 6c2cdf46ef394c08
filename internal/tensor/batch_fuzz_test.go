package tensor

import (
	"math"
	"math/rand"
	"testing"

	"after/internal/parallel"
)

// FuzzBatchKernels differentially tests the portable batched kernels — the
// only ones a non-amd64 build runs — against the AVX2 ones. Every kernel
// (SpMMBatchInto, MatMulBlocksInto, AddReLUInto and their float32 forms)
// runs with useAVX2 on and off, at worker limits 1 and 8, over random
// implicit-ones CSRs per column block (ragged and empty rows included) and
// random inputs and weights. float64 results must be bit-identical; float32
// ones agree within 1e-4 of the output scale, because the f32 AVX2
// projections fuse multiply-adds. Inputs pick d ∈ {1,4,5,8,16},
// dout ∈ {1,3,8} and K ∈ {1,3,16}; rooms up to 400 rows clear the parallel
// cutoffs. The test flips a package variable, so it must not run in parallel.
func FuzzBatchKernels(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 on this host: the portable kernels have nothing to be compared against")
	}
	f.Add(int64(1), uint16(40), uint8(1), uint8(2), uint8(1), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, dSel, doutSel, kSel, density uint8) {
		d := []int{1, 4, 5, 8, 16}[int(dSel)%5]
		dout := []int{1, 3, 8}[int(doutSel)%3]
		k := []int{1, 3, 16}[int(kSel)%3]
		n := 1 + int(rows)%400
		rng := rand.New(rand.NewSource(seed))

		graphs := make([]*CSR, k)
		for b := range graphs {
			if b > 0 && rng.Intn(3) == 0 {
				graphs[b] = graphs[b-1] // aliased blocks, as a shared-graph batch has
				continue
			}
			graphs[b] = fuzzPattern(rng, n, float64(density)/2550)
		}
		x := randomDense(rng, n, k*d)
		for i := range x.Data {
			switch rng.Intn(8) {
			case 0:
				x.Data[i] = 0 // the projections' mv == 0 skip
			case 1:
				x.Data[i] = math.Copysign(0, -1)
			}
		}
		w := randomDense(rng, d, dout)
		x32, w32 := ToMatrix32(x), ToMatrix32(w)

		want := runBatchKernels(true, 1, graphs, x, w, x32, w32, k)
		for _, c := range []struct {
			avx     bool
			workers int
		}{{true, 8}, {false, 1}, {false, 8}} {
			got := runBatchKernels(c.avx, c.workers, graphs, x, w, x32, w32, k)
			for i, name := range []string{"SpMMBatchInto", "MatMulBlocksInto", "AddReLUInto"} {
				for j, v := range want.f64[i] {
					if math.Float64bits(v) != math.Float64bits(got.f64[i][j]) {
						t.Fatalf("%s n=%d d=%d dout=%d K=%d avx=%v workers=%d: [%d] %v, AVX2 workers=1 %v",
							name, n, d, dout, k, c.avx, c.workers, j, got.f64[i][j], v)
					}
				}
				scale := 1.0
				for _, v := range want.f32[i] {
					scale = math.Max(scale, math.Abs(float64(v)))
				}
				for j, v := range want.f32[i] {
					if diff := math.Abs(float64(v) - float64(got.f32[i][j])); diff > 1e-4*scale {
						t.Fatalf("%s32 n=%d d=%d dout=%d K=%d avx=%v workers=%d: [%d] %v, AVX2 workers=1 %v (scale %v)",
							name, n, d, dout, k, c.avx, c.workers, j, got.f32[i][j], v, scale)
					}
				}
			}
		}
	})
}

// fuzzPattern builds a random n×n implicit-ones CSR whose rows are ragged:
// a quarter of them empty, an eighth dense, the rest at edge probability p.
func fuzzPattern(rng *rand.Rand, n int, p float64) *CSR {
	rowPtr := make([]int32, n+1)
	var cols []int32
	for i := 0; i < n; i++ {
		q := p
		switch rng.Intn(8) {
		case 0, 1:
			q = 0
		case 2:
			q = 0.5
		}
		for j := 0; j < n; j++ {
			if rng.Float64() < q {
				cols = append(cols, int32(j))
			}
		}
		rowPtr[i+1] = int32(len(cols))
	}
	return NewCSR(n, n, rowPtr, cols, nil, false)
}

// batchKernelOut holds one run's results: SpMM, projection and add+ReLU, in
// that order, per precision.
type batchKernelOut struct {
	f64 [3][]float64
	f32 [3][]float32
}

// runBatchKernels runs every batched kernel with the AVX2 dispatch forced to
// avx and the worker pool capped at workers, restoring the dispatch flag on
// return. The add+ReLU operands are the SpMM result and x itself, so the
// epilogue sees negative, zero and −0 sums.
func runBatchKernels(avx bool, workers int, graphs []*CSR, x, w *Matrix, x32, w32 *Matrix32, k int) (out batchKernelOut) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = avx
	parallel.WithLimit(workers, func() {
		sp := NewMatrix(x.Rows, x.Cols)
		SpMMBatchInto(sp, graphs, x)
		mm := NewMatrix(x.Rows, k*w.Cols)
		MatMulBlocksInto(mm, x, w, k)
		relu := append([]float64(nil), sp.Data...)
		AddReLUInto(relu, x.Data)
		out.f64 = [3][]float64{sp.Data, mm.Data, relu}

		sp32 := NewMatrix32(x32.Rows, x32.Cols)
		SpMMBatchInto32(sp32, graphs, x32)
		mm32 := NewMatrix32(x32.Rows, k*w32.Cols)
		MatMulBlocksInto32(mm32, x32, w32, k)
		relu32 := append([]float32(nil), sp32.Data...)
		AddReLUInto32(relu32, x32.Data)
		out.f32 = [3][]float32{sp32.Data, mm32.Data, relu32}
	})
	return out
}
