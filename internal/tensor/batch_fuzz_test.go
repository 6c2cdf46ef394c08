package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"after/internal/parallel"
)

// FuzzBatchKernels differentially tests the portable batched kernels — the
// only ones a non-amd64 build runs — against the AVX2 ones, and every
// float64 result against the scalar references. Every kernel
// (SpMMBatchInto, MatMulBlocksInto, AddReLUInto and their float32 forms)
// runs with useAVX2 on and off, at worker limits 1 and 8, over random
// implicit-ones CSRs per column block (ragged and empty rows included) and
// random inputs and weights. So do the products training sends through
// SpMMInto and MatMulInto: a rectangular CSR, its row normalization and that
// matrix's non-symmetric transpose (explicit values, as DCRNN's and
// GraFrank's), and a weight gradient Xᵀ·G, one block whose inner dimension
// is the room size. float64 results must equal the references in every
// bit; float32 ones agree within 1e-4 of the output scale, because the f32
// AVX2 projections fuse multiply-adds. Inputs pick d ∈ {1,4,5,8,16},
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
		p := float64(density) / 2550
		rng := rand.New(rand.NewSource(seed))

		in := fuzzInput{k: k, graphs: make([]*CSR, k)}
		for b := range in.graphs {
			if b > 0 && rng.Intn(3) == 0 {
				in.graphs[b] = in.graphs[b-1] // aliased blocks, as a shared-graph batch has
				continue
			}
			in.graphs[b] = fuzzPattern(rng, n, n, p)
		}
		in.x = randomDense(rng, n, k*d)
		for i := range in.x.Data {
			switch rng.Intn(8) {
			case 0:
				in.x.Data[i] = 0 // the projections' mv == 0 skip
			case 1:
				in.x.Data[i] = math.Copysign(0, -1)
			}
		}
		in.w = randomDense(rng, d, dout)
		in.x32, in.w32 = ToMatrix32(in.x), ToMatrix32(in.w)
		rect := fuzzPattern(rng, 1+rng.Intn(n+8), n, p)
		rn := rect.RowNormalized()
		in.sparse = []*CSR{rect, rn, rn.T()}
		in.rhs = []*Matrix{in.x, in.x, randomDense(rng, rect.Rows, k*d)}
		in.xt, in.g = transposed(in.x), randomDense(rng, n, dout)

		// The references, per column block where the kernel is batched.
		type ref struct {
			out, block int
			want       *Matrix
		}
		var refs []ref
		for b, g := range in.graphs {
			refs = append(refs, ref{0, b, refSpMM(g, colBlock(in.x, b, d))})
			refs = append(refs, ref{1, b, refMatMul(colBlock(in.x, b, d), in.w)})
		}
		for i, a := range in.sparse {
			refs = append(refs, ref{3 + i, 0, refSpMM(a, in.rhs[i])})
		}
		refs = append(refs, ref{6, 0, refMatMul(in.xt, in.g)})

		var want batchKernelOut // the AVX2 kernels on one worker
		for i, c := range []struct {
			avx     bool
			workers int
		}{{true, 1}, {true, 8}, {false, 1}, {false, 8}} {
			got := runBatchKernels(c.avx, c.workers, &in)
			if i == 0 {
				want = got
			}
			cfg := fmt.Sprintf("n=%d d=%d dout=%d K=%d avx=%v workers=%d", n, d, dout, k, c.avx, c.workers)
			for _, r := range refs {
				sameBits(t, f64Names[r.out]+" "+cfg, got.f64[r.out], r.block, r.want)
			}
			// AddReLUInto has no scalar reference: the portable loop is its own.
			sameBits(t, "AddReLUInto "+cfg, got.f64[2], 0, want.f64[2])
			for i, name := range f64Names[:3] {
				scale := 1.0
				for _, v := range want.f32[i] {
					scale = math.Max(scale, math.Abs(float64(v)))
				}
				for j, v := range want.f32[i] {
					if diff := math.Abs(float64(v) - float64(got.f32[i][j])); diff > 1e-4*scale {
						t.Fatalf("%s32 %s: [%d] %v, AVX2 workers=1 %v (scale %v)",
							name, cfg, j, got.f32[i][j], v, scale)
					}
				}
			}
		}
	})
}

// fuzzPattern builds a random rows×cols implicit-ones CSR whose rows are
// ragged: a quarter of them empty, an eighth dense, the rest at edge
// probability p.
func fuzzPattern(rng *rand.Rand, rows, cols int, p float64) *CSR {
	rowPtr := make([]int32, rows+1)
	var col []int32
	for i := 0; i < rows; i++ {
		q := p
		switch rng.Intn(8) {
		case 0, 1:
			q = 0
		case 2:
			q = 0.5
		}
		for j := 0; j < cols; j++ {
			if rng.Float64() < q {
				col = append(col, int32(j))
			}
		}
		rowPtr[i+1] = int32(len(col))
	}
	return NewCSR(rows, cols, rowPtr, col, nil, false)
}

// fuzzInput is one fuzz case: the batched inference operands (K column
// blocks of x, one graph each, weights w) and training's single products
// sparse[i]·rhs[i] and xt·g.
type fuzzInput struct {
	k        int
	graphs   []*CSR
	x, w     *Matrix
	x32, w32 *Matrix32
	sparse   []*CSR
	rhs      []*Matrix
	xt, g    *Matrix
}

// f64Names names batchKernelOut.f64's entries.
var f64Names = []string{
	"SpMMBatchInto", "MatMulBlocksInto", "AddReLUInto",
	"SpMMInto rectangular", "SpMMInto row-normalized", "SpMMInto transposed", "MatMulInto Xᵀ·G",
}

// batchKernelOut holds one run's results: per precision the SpMM,
// projection and add+ReLU, and in float64 training's four single products.
type batchKernelOut struct {
	f64 [7]*Matrix
	f32 [3][]float32
}

// runBatchKernels runs every kernel with the AVX2 dispatch forced to avx
// and the worker pool capped at workers, restoring the dispatch flag on
// return. The add+ReLU operands are the SpMM result and x itself, so the
// epilogue sees negative, zero and −0 sums.
func runBatchKernels(avx bool, workers int, in *fuzzInput) (out batchKernelOut) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = avx
	x, w, x32, w32, k := in.x, in.w, in.x32, in.w32, in.k
	parallel.WithLimit(workers, func() {
		sp := NewMatrix(x.Rows, x.Cols)
		F64.SpMMBatchInto(f64(sp), in.graphs, f64(x))
		mm := NewMatrix(x.Rows, k*w.Cols)
		F64.MatMulBlocksInto(f64(mm), f64(x), f64(w), k)
		relu := sp.Clone()
		F64.AddReLUInto(relu.Data, x.Data)
		out.f64 = [7]*Matrix{sp, mm, relu}
		for i, a := range in.sparse {
			out.f64[3+i] = NewMatrix(a.Rows, in.rhs[i].Cols)
			SpMMInto(out.f64[3+i], a, in.rhs[i])
		}
		out.f64[6] = NewMatrix(in.xt.Rows, in.g.Cols)
		MatMulInto(out.f64[6], in.xt, in.g)

		sp32 := NewMatrix32(x32.Rows, x32.Cols)
		F32.SpMMBatchInto(sp32, in.graphs, x32)
		mm32 := NewMatrix32(x32.Rows, k*w32.Cols)
		F32.MatMulBlocksInto(mm32, x32, w32, k)
		relu32 := append([]float32(nil), sp32.Data...)
		F32.AddReLUInto(relu32, x32.Data)
		out.f32 = [3][]float32{sp32.Data, mm32.Data, relu32}
	})
	return out
}
