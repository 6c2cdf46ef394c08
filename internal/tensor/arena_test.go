package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestSharedGradientNotAdopted routes one output gradient to two parents
// and then gives each parent a different further gradient. Add hands both
// of its parents the same out.grad, and Concat splits one gradient between
// them; a parent that adopted a buffer another node still holds would
// carry its sibling's later gradient too. The run repeats with the
// parents bound to an arena, whose Reset must then hold every released
// buffer once.
func TestSharedGradientNotAdopted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a0, b0 := Randn(rng, 3, 2, 1), Randn(rng, 3, 2, 1)
	c1, c2, c3 := Randn(rng, 3, 2, 1), Randn(rng, 3, 2, 1), Randn(rng, 3, 2, 1)
	c4 := Randn(rng, 3, 4, 1)
	cols := func(m *Matrix, lo, hi int) *Matrix {
		out := NewMatrix(m.Rows, hi-lo)
		for i := 0; i < m.Rows; i++ {
			copy(out.Data[i*(hi-lo):(i+1)*(hi-lo)], m.Data[i*m.Cols+lo:i*m.Cols+hi])
		}
		return out
	}
	dot := func(x *Tensor, c *Matrix) *Tensor { return Sum(Mul(x, Constant(c))) }
	for _, tc := range []struct {
		name string
		// shared builds the term whose backward pass reaches both
		// parents from one gradient; gradA and gradB are its gradients.
		shared       func(a, b *Tensor) *Tensor
		gradA, gradB *Matrix
	}{
		{"Add", func(a, b *Tensor) *Tensor { return dot(Add(a, b), c1) }, c1, c1},
		{"Concat", func(a, b *Tensor) *Tensor { return dot(Concat(a, b), c4) }, cols(c4, 0, 2), cols(c4, 2, 4)},
	} {
		for _, arena := range []*Arena{nil, NewArena()} {
			a, b := Variable(a0.Clone()), Variable(b0.Clone())
			a.Bind(arena)
			b.Bind(arena)
			// The shared term comes last, so its backward pass runs first
			// and hands a and b their first gradients.
			loss := Add(Add(dot(a, c2), dot(b, c3)), tc.shared(a, b))
			Backward(loss)
			for _, p := range []struct {
				name      string
				got, s, c *Matrix
			}{{"a", a.Grad(), tc.gradA, c2}, {"b", b.Grad(), tc.gradB, c3}} {
				for i := range p.got.Data {
					if want := p.s.Data[i] + p.c.Data[i]; p.got.Data[i] != want {
						t.Fatalf("%s, arena %v: ∂/∂%s[%d] = %v, want %v", tc.name, arena != nil, p.name, i, p.got.Data[i], want)
					}
				}
			}
			if arena == nil {
				continue
			}
			a.ZeroGrad()
			b.ZeroGrad()
			arena.Reset(loss)
			seen := map[*float64]bool{}
			for _, l := range arena.free {
				for _, m := range l {
					if seen[&m.Data[0]] {
						t.Fatalf("%s: the arena holds a %dx%d buffer twice", tc.name, m.Rows, m.Cols)
					}
					seen[&m.Data[0]] = true
				}
			}
		}
	}
}

// TestArenaReusesBuffers runs the same graph twice on one arena. After the
// first run's Reset, the second must compute the same loss and gradients
// in every bit and draw every matrix from the first run's buffers, so the
// arena holds no more after the second Reset than after the first.
func TestArenaReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	_, adj := randomSymmetricAdjacency(rng, 12, 0.3)
	x := Randn(rng, 12, 3, 1)
	w, v := Variable(Randn(rng, 3, 4, 1)), Variable(Randn(rng, 4, 1, 1))
	arena := NewArena()
	w.Bind(arena)
	v.Bind(arena)
	var first []uint64
	held := 0
	for pass := 0; pass < 2; pass++ {
		h := Sigmoid(SpMMT(adj, MatMulT(Constant(x), w)))
		loss := Add(Mean(Mul(h, h)), QuadraticFormCSR(Sigmoid(MatMulT(h, v)), adj))
		Backward(loss)
		bits := []uint64{math.Float64bits(loss.Value.Data[0])}
		for _, p := range []*Tensor{w, v} {
			for _, g := range p.Grad().Data {
				bits = append(bits, math.Float64bits(g))
			}
			p.ZeroGrad()
		}
		arena.Reset(loss)
		n := 0
		for _, l := range arena.free {
			n += len(l)
		}
		if pass == 0 {
			first, held = bits, n
			continue
		}
		if n != held {
			t.Errorf("the arena holds %d buffers after the second run, %d after the first", n, held)
		}
		for i := range bits {
			if bits[i] != first[i] {
				t.Fatalf("bit pattern %d differs after Reset: %x, first run %x", i, bits[i], first[i])
			}
		}
	}
}
