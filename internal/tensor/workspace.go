package tensor

import "sync"

// Pool is a size-bucketed scratch-buffer pool of Dense matrices, safe for
// concurrent use; the fused inference pass takes its scratch from one. Get
// hands out a matrix with undefined contents; Put returns it. Any rows×cols
// factorization of the same element count shares one bucket. Forgetting
// Put is safe (the buffer is garbage-collected); Putting a matrix that is
// still referenced elsewhere is the caller's bug, exactly like any pool.
type Pool[F Float] struct {
	buckets sync.Map // total element count -> *sync.Pool of *Dense[F]
}

func (p *Pool[F]) bucket(n int) *sync.Pool {
	if b, ok := p.buckets.Load(n); ok {
		return b.(*sync.Pool)
	}
	b, _ := p.buckets.LoadOrStore(n, &sync.Pool{New: func() any {
		return &Dense[F]{Data: make([]F, n)}
	}})
	return b.(*sync.Pool)
}

// Get returns a rows×cols matrix with undefined contents.
func (p *Pool[F]) Get(rows, cols int) *Dense[F] {
	if rows <= 0 || cols <= 0 {
		panic("tensor: Pool.Get with non-positive shape")
	}
	m := p.bucket(rows * cols).Get().(*Dense[F])
	m.Rows, m.Cols = rows, cols
	return m
}

// Put returns m to the pool. m must not be used afterwards.
func (p *Pool[F]) Put(m *Dense[F]) {
	if m == nil {
		return
	}
	p.bucket(len(m.Data)).Put(m)
}

// Arena is one training run's matrix free list, keyed like Pool by element
// count. While a run's parameters are bound to it (Tensor.Bind), the values,
// gradients and backward temporaries of the graphs built on them come from
// it, and Reset takes a finished graph's buffers back, so a run allocates
// its matrices in its first window and reuses them after. It belongs to its
// run: it is not safe for concurrent use, and its buffers go with its owner
// (nn's optimizer). A nil *Arena allocates every matrix and keeps none.
type Arena struct {
	free map[int][]*Matrix
	walker
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{free: map[int][]*Matrix{}} }

// get returns a rows×cols matrix with undefined contents: a released buffer
// of rows·cols elements, or a new one.
func (a *Arena) get(rows, cols int) *Matrix {
	if a != nil {
		if l := a.free[rows*cols]; len(l) > 0 {
			m := l[len(l)-1]
			a.free[rows*cols] = l[:len(l)-1]
			m.Rows, m.Cols = rows, cols
			return m
		}
	}
	return NewMatrix(rows, cols)
}

// put releases m, if any, to the arena. m must not be used afterwards.
func (a *Arena) put(m *Matrix) {
	if a != nil && m != nil {
		a.free[len(m.Data)] = append(a.free[len(m.Data)], m)
	}
}

// Reset takes back the value and gradient of every op node of root's graph
// that drew on the arena and clears the node, so a stale read fails instead
// of seeing a reused buffer; state that outlives the graph is copied first.
func (a *Arena) Reset(root *Tensor) {
	for _, n := range a.walk(root) {
		if n.arena != a || n.parents == nil {
			continue // a leaf's value belongs to its owner
		}
		a.put(n.Value)
		a.put(n.grad)
		*n = Tensor{}
	}
}
