package tensor

import "sync"

// Pool is a size-bucketed scratch-buffer pool of Dense matrices, safe for
// concurrent use. Get hands out a matrix with undefined contents; Put
// returns it. Any rows×cols factorization of the same element count shares
// one bucket. Forgetting Put is safe (the buffer is garbage-collected);
// Putting a matrix that is still referenced elsewhere is the caller's bug,
// exactly like any pool.
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

// Workspace is the float64 Pool in Matrix form. The autodiff tape is
// MatMul/Clone-heavy: every Backward pass materializes transposes,
// negations, and activation-derivative products that live only until the
// next accumulate call. Routing those short-lived temporaries through a
// Workspace cuts the allocation churn of training (the
// BenchmarkTrainingEpoch allocs/op drop is recorded in EXPERIMENTS.md).
//
// A Workspace is safe for concurrent use — the parallel model-selection grid
// trains several models at once against the shared default workspace.
type Workspace struct {
	pool Pool[float64]
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// defaultWorkspace backs the autodiff engine's internal temporaries.
var defaultWorkspace = NewWorkspace()

// Get returns a rows×cols matrix with undefined contents (use GetZeroed
// when the caller accumulates into it).
func (w *Workspace) Get(rows, cols int) *Matrix {
	return (*Matrix)(w.pool.Get(rows, cols))
}

// GetZeroed returns a rows×cols matrix with every element set to 0.
func (w *Workspace) GetZeroed(rows, cols int) *Matrix {
	m := w.Get(rows, cols)
	m.Zero()
	return m
}

// GetCopy returns a pooled deep copy of src.
func (w *Workspace) GetCopy(src *Matrix) *Matrix {
	m := w.Get(src.Rows, src.Cols)
	copy(m.Data, src.Data)
	return m
}

// Put returns m to the workspace. m must not be used afterwards.
func (w *Workspace) Put(m *Matrix) {
	w.pool.Put((*Dense[float64])(m))
}
