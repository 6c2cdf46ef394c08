package tensor

// AVX2 row kernels behind the useAVX2 dispatch of the F64 and F32 kernel
// sets (Kernels.SpMMBatchInto, MatMulBlocksInto and AddReLUInto),
// implemented in batch_amd64.s. Contracts mirror the portable Go kernels
// they replace (FuzzBatchKernels checks both):
//
//   - The float64 pair keeps multiplies and adds as separate, individually
//     rounded instructions in the exact scalar order (k ascending / neighbor
//     ascending, each output column its own accumulator chain), so their
//     results are bit-identical to the Go kernels — including the mv==0 skip,
//     which vanishes numerically because x+(±0) == x for every x reachable
//     from a +0 accumulator.
//   - The float32 set uses VFMADD (fused, one rounding per multiply-add) and
//     is held to the float32 tolerance contract instead, sitting closer to
//     the float64 oracle than the portable f32 kernels do.
//
// All of them assume blocks ≥ 1 and din ≥ 1; matMulHeadF32AVX2 additionally
// requires din%8 == 0 (checked at the dispatch site).

//go:noescape
func matMulBlocksF64AVX2(dst, x, w []float64, rows, blocks, din, xStride, dstStride int)

//go:noescape
func matMulBlocksF32AVX2(dst, x, w []float32, rows, blocks, din, xStride, dstStride int)

//go:noescape
func matMulHeadF32AVX2(dst, x, w []float32, rows, blocks, din, xStride, dstStride int)

//go:noescape
func spmmCSROnes4F64AVX2(dst []float64, rowptr, cols []int32, x []float64, rows, stride, off int)

//go:noescape
func spmmCSROnes8F64AVX2(dst []float64, rowptr, cols []int32, x []float64, rows, stride, off int)

//go:noescape
func spmmCSROnes16F64AVX2(dst []float64, rowptr, cols []int32, x []float64, rows, stride, off int)

//go:noescape
func spmmCSROnes4F32AVX2(dst []float32, rowptr, cols []int32, x []float32, rows, stride, off int)

//go:noescape
func spmmCSROnes8F32AVX2(dst []float32, rowptr, cols []int32, x []float32, rows, stride, off int)

//go:noescape
func spmmCSROnes16F32AVX2(dst []float32, rowptr, cols []int32, x []float32, rows, stride, off int)

//go:noescape
func addReLUInto64AVX2(dst, a []float64)

//go:noescape
func addReLUInto32AVX2(dst, a []float32)
