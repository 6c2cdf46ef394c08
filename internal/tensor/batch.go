package tensor

import (
	"fmt"

	"after/internal/parallel"
)

// The SpMM and dense-product kernels. Every float64 product runs here:
// SpMMInto and MatMulInto are F64's one-graph and one-block faces, which
// the training tape calls, and `core.BatchSession` calls the batched forms.
// K targets of one room are stacked target-major into a single N×(K·d)
// matrix — column block k holds target k's d feature columns — so one
// kernel invocation carries the whole batch and the weight matrix streams
// through the cache once instead of K times.
//
// Occlusion graphs are per-target (arcs are cast from the target's eye), so
// the batched SpMM applies a distinct CSR to each column block; passing the
// same *CSR for every block degenerates to the classic shared-graph wide-RHS
// SpMM. Per column block the accumulation order is the scalar one — each
// output from zero, nonzeros and inner indices ascending, zero values
// skipped — so the fused forward pass is bit-identical to the training
// tape (pinned in internal/core's batch property tests), and every float64
// product to the scalar references in this package's tests.
//
// Every kernel is written once, generic over the element type, and bound to
// each precision's AVX2 entry points by a Kernels value: F64, the oracle
// precision, and F32, the serving fast path.

// Float is the element type of the kernels.
type Float interface{ float32 | float64 }

// Dense is a row-major rows×cols matrix of the kernels. Its layout is
// Matrix's, so a *Matrix converts to a *Dense[float64] in place.
type Dense[F Float] struct {
	Rows, Cols int
	Data       []F
}

// Matrix32 is the float32 matrix of the inference fast path
// (core.BatchSession with Float32 set): serving sessions trade the float64
// oracle's last bits for halved memory traffic. It has no autodiff.
type Matrix32 = Dense[float32]

// NewMatrix32 allocates a zero rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ToMatrix32 converts m by rounding every element to float32 — the one-time
// weight conversion a float32 session performs at start.
func ToMatrix32(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Kernels is one precision's batched kernel set: the generic kernels below,
// bound to that precision's AVX2 entry points (batch_asm_amd64.go), which
// take over only while useAVX2 holds.
type Kernels[F Float] struct {
	spmmOnes4, spmmOnes8, spmmOnes16 func(dst []F, rowptr, cols []int32, x []F, rows, stride, off int)
	matMul8                          func(dst, x, w []F, rows, blocks, din, xStride, dstStride int)
	// matMulHead is the dout=1 projection for din%8 == 0, or nil when the
	// head keeps the scalar kernel: its single accumulator chain cannot
	// vectorize without reassociating, and in float64 the order is
	// contractual.
	matMulHead func(dst, x, w []F, rows, blocks, din, xStride, dstStride int)
	addReLU    func(dst, a []F)
}

var (
	// F64 is the float64 kernel set. Its AVX2 kernels round every multiply
	// and add separately in the scalar order, so it is bit-identical with or
	// without them.
	F64 = &Kernels[float64]{
		spmmOnes4:  spmmCSROnes4F64AVX2,
		spmmOnes8:  spmmCSROnes8F64AVX2,
		spmmOnes16: spmmCSROnes16F64AVX2,
		matMul8:    matMulBlocksF64AVX2,
		addReLU:    addReLUInto64AVX2,
	}
	// F32 is the float32 kernel set. Its AVX2 projections fuse multiply-adds
	// (one rounding instead of two), which the float32 tolerance contract
	// allows, and add the dout=1 head.
	F32 = &Kernels[float32]{
		spmmOnes4:  spmmCSROnes4F32AVX2,
		spmmOnes8:  spmmCSROnes8F32AVX2,
		spmmOnes16: spmmCSROnes16F32AVX2,
		matMul8:    matMulBlocksF32AVX2,
		matMulHead: matMulHeadF32AVX2,
		addReLU:    addReLUInto32AVX2,
	}
)

// rowChunk returns the row-block size for a kernel that writes rows output
// rows with work multiply-adds: rows itself — one block, run on the calling
// goroutine — unless work clears cutoff and the worker pool has more than
// one worker, in which case the rows split evenly over the workers.
func rowChunk(rows, work, cutoff int) int {
	workers := min(parallel.Limit(), rows)
	if workers <= 1 || work < cutoff {
		return rows
	}
	return (rows + workers - 1) / workers
}

// forRowChunks runs body over [0, rows) in contiguous blocks of chunk rows
// on the worker pool. Each block owns disjoint output rows, so results are
// bit-identical for every worker count. Kernels call it only when rowChunk
// splits the rows: its closure escapes, so building one allocates, and the
// single-block path calls the row loop directly instead.
func forRowChunks(rows, chunk int, body func(lo, hi int)) {
	n := (rows + chunk - 1) / chunk
	parallel.ForEachN(n, n, func(b int) {
		lo := b * chunk
		body(lo, min(lo+chunk, rows))
	})
}

// SpMMBatchInto computes, for each block b, graphs[b]·x[:, b·d:(b+1)·d] into
// the same column block of dst, where d = x.Cols/len(graphs). The graphs
// share one shape, rows × x.Rows, which need not be square; dst is
// rows × x.Cols and fully overwritten. Rows fan out over the worker pool
// when the total multiply-add work clears spmmParallelCutoff. The CSR values
// stay float64 (adjacencies are implicit-ones patterns, so the graph side
// loses nothing in float32).
func (k *Kernels[F]) SpMMBatchInto(dst *Dense[F], graphs []*CSR, x *Dense[F]) {
	nb := len(graphs)
	if nb == 0 || x.Cols%nb != 0 {
		panic(fmt.Sprintf("tensor: SpMMBatchInto %d blocks over %d columns", nb, x.Cols))
	}
	d := x.Cols / nb
	rows, work := graphs[0].Rows, 0
	for _, g := range graphs {
		if g.Rows != rows || g.Cols != x.Rows {
			panic(fmt.Sprintf("tensor: SpMMBatchInto graph %dx%d, want %dx%d", g.Rows, g.Cols, rows, x.Rows))
		}
		work += g.NNZ() * d
	}
	if dst.Rows != rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: SpMMBatchInto dst %dx%d for %dx%d result", dst.Rows, dst.Cols, rows, x.Cols))
	}
	if chunk := rowChunk(rows, work, spmmParallelCutoff); chunk < rows {
		// The escaping closure captures a copy, which keeps the caller's
		// slice (SpMMInto's one-graph literal) off the heap.
		graphs := append([]*CSR(nil), graphs...)
		forRowChunks(rows, chunk, func(lo, hi int) { k.spmmRows(dst, graphs, x, lo, hi) })
	} else {
		k.spmmRows(dst, graphs, x, 0, rows)
	}
}

// spmmRows is SpMMBatchInto over output rows [lo, hi).
func (k *Kernels[F]) spmmRows(dst *Dense[F], graphs []*CSR, x *Dense[F], lo, hi int) {
	d := x.Cols / len(graphs)
	// Block-outer, row-inner: processing one graph's column block across all
	// rows before moving to the next keeps that block's gathered x rows (a
	// ~d·sizeof(F)·rows byte footprint) cache-resident, where a row-outer
	// loop cycles the entire wide matrix once per row. Blocks write disjoint
	// dst columns and each output element still accumulates its neighbors in
	// ascending order, so the interchange is invisible in the bits.
	for b, g := range graphs {
		off := b * d
		if g.Val == nil {
			// Implicit-ones adjacency — the occlusion hot path. The width
			// specializations accumulate each output column in register, in
			// the same ascending-neighbor order as the generic loop, so
			// results stay bit-identical; they also write (not add into) the
			// output, making a zero pass redundant. On CPUs with AVX2 the
			// vector kernels take over — still one ascending-order
			// accumulator chain per column, so still bit-identical.
			switch {
			case useAVX2 && d == 4:
				k.spmmOnes4(dst.Data[lo*x.Cols+off:], g.RowPtr[lo:hi+1], g.Col, x.Data, hi-lo, x.Cols, off)
			case useAVX2 && d == 8:
				k.spmmOnes8(dst.Data[lo*x.Cols+off:], g.RowPtr[lo:hi+1], g.Col, x.Data, hi-lo, x.Cols, off)
			case useAVX2 && d == 16:
				k.spmmOnes16(dst.Data[lo*x.Cols+off:], g.RowPtr[lo:hi+1], g.Col, x.Data, hi-lo, x.Cols, off)
			case d == 1:
				for i := lo; i < hi; i++ {
					var acc F
					for _, c := range g.Col[g.RowPtr[i]:g.RowPtr[i+1]] {
						acc += x.Data[int(c)*x.Cols+off]
					}
					dst.Data[i*x.Cols+off] = acc
				}
			case d == 4:
				for i := lo; i < hi; i++ {
					spmmRowOnes4(dst.Data[i*x.Cols+off:], g.Col[g.RowPtr[i]:g.RowPtr[i+1]], x.Data, x.Cols, off)
				}
			case d == 8:
				for i := lo; i < hi; i++ {
					spmmRowOnes8(dst.Data[i*x.Cols+off:], g.Col[g.RowPtr[i]:g.RowPtr[i+1]], x.Data, x.Cols, off)
				}
			case d == 16:
				for i := lo; i < hi; i++ {
					spmmRowOnes16(dst.Data[i*x.Cols+off:], g.Col[g.RowPtr[i]:g.RowPtr[i+1]], x.Data, x.Cols, off)
				}
			default:
				for i := lo; i < hi; i++ {
					ob := dst.Data[i*x.Cols+off:][:d]
					for j := range ob {
						ob[j] = 0
					}
					for _, c := range g.Col[g.RowPtr[i]:g.RowPtr[i+1]] {
						xb := x.Data[int(c)*x.Cols+off:][:d]
						for j, xv := range xb {
							ob[j] += xv
						}
					}
				}
			}
			continue
		}
		for i := lo; i < hi; i++ {
			ob := dst.Data[i*x.Cols+off:][:d]
			for j := range ob {
				ob[j] = 0
			}
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				v := g.at(k)
				if v == 0 {
					continue
				}
				xb := x.Data[int(g.Col[k])*x.Cols+off:][:d]
				if v == 1 {
					for j, xv := range xb {
						ob[j] += xv
					}
					continue
				}
				fv := F(v)
				for j, xv := range xb {
					ob[j] += fv * xv
				}
			}
		}
	}
}

// matMulBlocksParallelCutoff is the multiply-add count above which
// MatMulBlocksInto fans rows out over the worker pool. Same rationale as
// spmmParallelCutoff: the POSHGNN projections are tiny (din, dout ≤ 16), so
// only genuinely wide batches on big rooms clear it.
const matMulBlocksParallelCutoff = 1 << 18

// MatMulBlocksInto applies one shared weight matrix w (din×dout) to every
// column block of the target-major batch x (rows×(K·din)), writing the
// rows×(K·dout) result into dst. Per block this keeps the scalar ikj loop
// order — including the mv==0 row skip — so each column block of the
// result is bit-identical to the one-block product of that block alone
// (float64; the float32 AVX2 kernels fuse multiply-adds).
func (k *Kernels[F]) MatMulBlocksInto(dst, x, w *Dense[F], blocks int) {
	din, dout := w.Rows, w.Cols
	if blocks <= 0 || x.Cols != blocks*din {
		panic(fmt.Sprintf("tensor: MatMulBlocksInto %d blocks of %d over %d columns", blocks, din, x.Cols))
	}
	if dst.Rows != x.Rows || dst.Cols != blocks*dout {
		panic(fmt.Sprintf("tensor: MatMulBlocksInto dst %dx%d for %dx%d result", dst.Rows, dst.Cols, x.Rows, blocks*dout))
	}
	if chunk := rowChunk(x.Rows, x.Rows*x.Cols*dout, matMulBlocksParallelCutoff); chunk < x.Rows {
		forRowChunks(x.Rows, chunk, func(lo, hi int) { k.matMulRows(dst, x, w, blocks, lo, hi) })
	} else {
		k.matMulRows(dst, x, w, blocks, 0, x.Rows)
	}
}

// matMulRows is MatMulBlocksInto over output rows [lo, hi).
func (k *Kernels[F]) matMulRows(dst, x, w *Dense[F], blocks, lo, hi int) {
	din, dout := w.Rows, w.Cols
	if useAVX2 && hi > lo {
		switch {
		case dout == 8:
			k.matMul8(dst.Data[lo*dst.Cols:], x.Data[lo*x.Cols:], w.Data, hi-lo, blocks, din, x.Cols, dst.Cols)
			return
		case dout == 1 && din%8 == 0 && k.matMulHead != nil:
			k.matMulHead(dst.Data[lo*dst.Cols:], x.Data[lo*x.Cols:], w.Data, hi-lo, blocks, din, x.Cols, dst.Cols)
			return
		}
	}
	for i := lo; i < hi; i++ {
		xRow := x.Data[i*x.Cols : (i+1)*x.Cols]
		outRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		switch dout {
		// Register-accumulator specializations for the POSHGNN widths
		// (hidden=8 and the scalar heads). Accumulation runs in the same
		// ascending-k order with the same mv==0 skip as the generic loop,
		// so outputs are bit-identical; keeping the partial sums out of
		// memory roughly doubles throughput.
		case 8:
			for b := 0; b < blocks; b++ {
				matMulRow8(outRow[b*8:(b+1)*8], xRow[b*din:(b+1)*din], w.Data)
			}
		case 1:
			for b := 0; b < blocks; b++ {
				outRow[b] = matMulRow1(xRow[b*din:(b+1)*din], w.Data)
			}
		default:
			for j := range outRow {
				outRow[j] = 0
			}
			for b := 0; b < blocks; b++ {
				xb := xRow[b*din : (b+1)*din]
				ob := outRow[b*dout : (b+1)*dout]
				for k, mv := range xb {
					if mv == 0 {
						continue
					}
					wRow := w.Data[k*dout : (k+1)*dout]
					for j, wv := range wRow {
						ob[j] += mv * wv
					}
				}
			}
		}
	}
}

// spmmRowOnes4/8/16 accumulate Σ_{c∈cols} x[c, off:off+d] into ob for an
// implicit-ones CSR row, holding every partial sum in a register. stride is
// x's row stride (total batch width). Neighbor order — and therefore
// floating-point accumulation order — matches the generic loop exactly.
func spmmRowOnes4[F Float](ob []F, cols []int32, x []F, stride, off int) {
	var a0, a1, a2, a3 F
	for _, c := range cols {
		xb := x[int(c)*stride+off:]
		xb = xb[:4:4]
		a0 += xb[0]
		a1 += xb[1]
		a2 += xb[2]
		a3 += xb[3]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
}

func spmmRowOnes8[F Float](ob []F, cols []int32, x []F, stride, off int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 F
	for _, c := range cols {
		xb := x[int(c)*stride+off:]
		xb = xb[:8:8]
		a0 += xb[0]
		a1 += xb[1]
		a2 += xb[2]
		a3 += xb[3]
		a4 += xb[4]
		a5 += xb[5]
		a6 += xb[6]
		a7 += xb[7]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
	ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
}

func spmmRowOnes16[F Float](ob []F, cols []int32, x []F, stride, off int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 F
	var a8, a9, a10, a11, a12, a13, a14, a15 F
	for _, c := range cols {
		xb := x[int(c)*stride+off:]
		xb = xb[:16:16]
		a0 += xb[0]
		a1 += xb[1]
		a2 += xb[2]
		a3 += xb[3]
		a4 += xb[4]
		a5 += xb[5]
		a6 += xb[6]
		a7 += xb[7]
		a8 += xb[8]
		a9 += xb[9]
		a10 += xb[10]
		a11 += xb[11]
		a12 += xb[12]
		a13 += xb[13]
		a14 += xb[14]
		a15 += xb[15]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
	ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
	ob[8], ob[9], ob[10], ob[11] = a8, a9, a10, a11
	ob[12], ob[13], ob[14], ob[15] = a12, a13, a14, a15
}

// matMulRow8 computes ob = xb·w for one row block with dout=8, partial sums
// in registers, k ascending with the mv==0 skip — bit-identical to the
// generic path.
func matMulRow8[F Float](ob []F, xb []F, w []F) {
	var a0, a1, a2, a3, a4, a5, a6, a7 F
	for k, mv := range xb {
		if mv == 0 {
			continue
		}
		wr := w[k*8:]
		wr = wr[:8:8]
		a0 += mv * wr[0]
		a1 += mv * wr[1]
		a2 += mv * wr[2]
		a3 += mv * wr[3]
		a4 += mv * wr[4]
		a5 += mv * wr[5]
		a6 += mv * wr[6]
		a7 += mv * wr[7]
	}
	ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
	ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
}

// matMulRow1 is the dout=1 head: a plain register dot product with the same
// skip and order.
func matMulRow1[F Float](xb []F, w []F) F {
	var acc F
	for k, mv := range xb {
		if mv == 0 {
			continue
		}
		acc += mv * w[k]
	}
	return acc
}

// AddReLUInto fuses the convolution epilogue dst[i] = max(dst[i]+a[i], 0)
// over whole backing slices. The AVX2 path keeps the scalar branch's exact
// semantics — negatives clamp to +0, while −0 and NaN sums pass through — so
// it is bit-identical to the portable loop.
func (k *Kernels[F]) AddReLUInto(dst, a []F) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: AddReLUInto %d vs %d elements", len(dst), len(a)))
	}
	if useAVX2 {
		k.addReLU(dst, a)
		return
	}
	for i, v := range a {
		s := dst[i] + v
		if s < 0 {
			s = 0
		}
		dst[i] = s
	}
}
