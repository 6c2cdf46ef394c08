//go:build !race

package tensor

import (
	"math/rand"
	"testing"
)

// TestSingleBlockProductsAllocateNothing pins the training tape's product
// faces to zero allocations when the product runs as one block on the
// calling goroutine: SpMMInto's one-graph slice stays on the stack, and
// neither face builds the parallel branch's closure. It runs without the
// race detector, whose instrumentation allocates.
func TestSingleBlockProductsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	_, adj := randomSymmetricAdjacency(rng, 40, 0.2)
	x, w, dst := Randn(rng, 40, 8, 1), Randn(rng, 8, 8, 1), NewMatrix(40, 8)
	if n := testing.AllocsPerRun(100, func() { SpMMInto(dst, adj, x) }); n != 0 {
		t.Errorf("SpMMInto: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { MatMulInto(dst, x, w) }); n != 0 {
		t.Errorf("MatMulInto: %v allocations per call, want 0", n)
	}
}
