package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/tensor"
)

func TestParamsRegistry(t *testing.T) {
	p := NewParams()
	a := p.Register("a", tensor.Ones(2, 2))
	if p.Get("a") != a {
		t.Error("Get returned different tensor")
	}
	if p.Count() != 4 {
		t.Errorf("Count = %d", p.Count())
	}
	p.Register("b", tensor.Ones(1, 3))
	if got := p.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Names = %v", got)
	}
}

func TestParamsDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := NewParams()
	p.Register("x", tensor.Ones(1, 1))
	p.Register("x", tensor.Ones(1, 1))
}

func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParams()
	w := p.Register("w", tensor.Randn(rng, 3, 3, 1))
	snap := p.Snapshot()
	orig := w.Value.Clone()
	w.Value.ScaleInPlace(5)
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Data {
		if w.Value.Data[i] != orig.Data[i] {
			t.Fatal("restore did not recover original values")
		}
	}
	// Snapshot must be isolated from later mutation.
	w.Value.Data[0] = 42
	if snap["w"].Data[0] == 42 {
		t.Error("snapshot aliases live parameter")
	}
}

func TestRestoreUnknownName(t *testing.T) {
	p := NewParams()
	if err := p.Restore(map[string]*tensor.Matrix{"nope": tensor.Ones(1, 1)}); err == nil {
		t.Error("expected error for unknown parameter")
	}
}

func TestLinearForwardShapeAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParams()
	l := NewLinear(p, rng, "fc", 4, 3)
	// With zero weights, output equals the bias broadcast.
	l.W.Value.Zero()
	for j := 0; j < 3; j++ {
		l.B.Value.Data[j] = float64(j)
	}
	x := tensor.Constant(tensor.Ones(5, 4))
	y := l.Forward(x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("shape %dx%d", y.Rows(), y.Cols())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if y.Value.At(i, j) != float64(j) {
				t.Fatalf("bias broadcast wrong at %d,%d", i, j)
			}
		}
	}
}

func TestLinearTrainsToTarget(t *testing.T) {
	// Fit y = 2x on scalars: a smoke test that Linear+Adam converge.
	rng := rand.New(rand.NewSource(3))
	p := NewParams()
	l := NewLinear(p, rng, "fc", 1, 1)
	opt := NewAdam(p, 0.05)
	xs := tensor.Constant(tensor.FromColumn([]float64{-2, -1, 0, 1, 2}))
	ys := tensor.Constant(tensor.FromColumn([]float64{-4, -2, 0, 2, 4}))
	var loss float64
	for i := 0; i < 300; i++ {
		p.ZeroGrad()
		diff := tensor.Add(l.Forward(xs), tensor.Scale(ys, -1))
		lt := tensor.Mean(tensor.Mul(diff, diff))
		loss = lt.Value.Data[0]
		tensor.Backward(lt)
		opt.Step()
	}
	if loss > 1e-3 {
		t.Errorf("linear regression did not converge: loss=%v", loss)
	}
	if math.Abs(l.W.Value.Data[0]-2) > 0.05 {
		t.Errorf("learned slope %v, want ~2", l.W.Value.Data[0])
	}
}

// denseConv is the dense reference for GraphConv.ForwardSparse: the same
// Eq. 1 convolution with the neighbour aggregation A·h as a dense product
// over the N×N adjacency.
func denseConv(g *GraphConv, h *tensor.Tensor, adj *tensor.Matrix) *tensor.Tensor {
	neigh := tensor.MatMulT(tensor.Constant(adj), h)
	return tensor.Add(tensor.MatMulT(h, g.M1), tensor.MatMulT(neigh, g.M2))
}

func TestGraphConvAggregatesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParams()
	g := NewGraphConv(p, rng, "gc", 1, 1)
	// Identity self weight, identity neighbor weight.
	g.M1.Value.Data[0] = 1
	g.M2.Value.Data[0] = 1
	// Path graph 0-1-2.
	adj := tensor.NewMatrix(3, 3)
	adj.Set(0, 1, 1)
	adj.Set(1, 0, 1)
	adj.Set(1, 2, 1)
	adj.Set(2, 1, 1)
	h := tensor.Constant(tensor.FromColumn([]float64{1, 10, 100}))
	out := denseConv(g, h, adj)
	want := []float64{1 + 10, 10 + 101, 100 + 10}
	for i, w := range want {
		if math.Abs(out.Value.Data[i]-w) > 1e-12 {
			t.Errorf("node %d = %v, want %v", i, out.Value.Data[i], w)
		}
	}
}

func TestGraphConvIsolatedNodeSeesOnlySelf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewParams()
	g := NewGraphConv(p, rng, "gc", 2, 2)
	adj := tensor.NewMatrix(3, 3) // no edges
	h := tensor.Constant(tensor.Randn(rng, 3, 2, 1))
	out := denseConv(g, h, adj)
	ref := tensor.MatMulT(h, g.M1).Value
	for i := range ref.Data {
		if math.Abs(out.Value.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatal("isolated nodes should reduce to h·M1")
		}
	}
}

func TestGRUCellShapesAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewParams()
	c := NewGRUCell(p, rng, "gru", 3, 4)
	x := tensor.Constant(tensor.Randn(rng, 5, 3, 1))
	h := tensor.Constant(tensor.NewMatrix(5, 4))
	h2 := c.Forward(x, h)
	if h2.Rows() != 5 || h2.Cols() != 4 {
		t.Fatalf("shape %dx%d", h2.Rows(), h2.Cols())
	}
	for _, v := range h2.Value.Data {
		if v < -1 || v > 1 {
			t.Fatalf("GRU state %v out of (-1,1) from zero state", v)
		}
	}
}

func TestGRUCellGradientFlowsThroughTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewParams()
	c := NewGRUCell(p, rng, "gru", 2, 3)
	x := tensor.Constant(tensor.Randn(rng, 4, 2, 1))
	h := tensor.Constant(tensor.NewMatrix(4, 3))
	cur := c.Forward(x, h)
	for i := 0; i < 3; i++ {
		cur = c.Forward(x, cur)
	}
	tensor.Backward(tensor.Sum(cur))
	if c.Wz.W.Grad() == nil || c.Wh.W.Grad() == nil || c.Wr.W.Grad() == nil {
		t.Error("gradients missing after BPTT")
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := NewParams()
	x := p.Register("x", tensor.FromColumn([]float64{5, -3, 2}))
	opt := NewAdam(p, 0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		loss := tensor.Sum(tensor.Mul(x, x))
		tensor.Backward(loss)
		opt.Step()
	}
	for _, v := range x.Value.Data {
		if math.Abs(v) > 1e-2 {
			t.Errorf("Adam failed to minimize: x=%v", x.Value.Data)
			break
		}
	}
}

func TestAdamSkipsNilGrad(t *testing.T) {
	p := NewParams()
	a := p.Register("a", tensor.Ones(1, 1))
	b := p.Register("b", tensor.Ones(1, 1))
	opt := NewAdam(p, 0.1)
	tensor.Backward(tensor.Sum(tensor.Mul(a, a))) // only a gets a grad
	opt.Step()
	if b.Value.Data[0] != 1 {
		t.Error("parameter without gradient was updated")
	}
	if a.Value.Data[0] == 1 {
		t.Error("parameter with gradient was not updated")
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := NewParams()
	x := p.Register("x", tensor.FromColumn([]float64{1000}))
	opt := NewAdam(p, 0.1)
	opt.ClipNorm = 1
	tensor.Backward(tensor.Sum(tensor.Mul(x, x)))
	norm := opt.Step()
	if norm < 1999 || norm > 2001 {
		t.Errorf("reported pre-clip norm = %v, want 2000", norm)
	}
	// Update magnitude must be bounded by roughly lr regardless of grad size.
	if d := math.Abs(x.Value.Data[0] - 1000); d > 0.2 {
		t.Errorf("clipped step moved by %v", d)
	}
}

func TestCopyTo(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := NewParams()
	src.Register("w", tensor.Randn(rng, 2, 2, 1))
	dst := NewParams()
	d := dst.Register("w", tensor.NewMatrix(2, 2))
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	if d.Value.Data[0] != src.Get("w").Value.Data[0] {
		t.Error("CopyTo did not copy values")
	}
	// Missing name in destination.
	src.Register("extra", tensor.Ones(1, 1))
	if err := src.CopyTo(dst); err == nil {
		t.Error("missing destination parameter not detected")
	}
	// Shape mismatch.
	other := NewParams()
	other.Register("w", tensor.NewMatrix(1, 1))
	bad := NewParams()
	bad.Register("w", tensor.NewMatrix(2, 2))
	if err := bad.CopyTo(other); err == nil {
		t.Error("shape mismatch not detected")
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	p := NewParams()
	p.Register("w", tensor.NewMatrix(2, 2))
	if err := p.Restore(map[string]*tensor.Matrix{"w": tensor.NewMatrix(1, 1)}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestGraphConvSparseMatchesDense pins ForwardSparse to the dense
// reference: the value and the gradients of M1, M2 and h must agree in
// every bit, on random graphs of up to 61 nodes (edgeless and complete ones
// included) and on occlusion frames of edgeless, fully stacked and walking
// crowds, at the convolution widths POSHGNN and the baselines use.
func TestGraphConvSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type graph struct {
		name string
		adj  *tensor.CSR
	}
	var graphs []graph
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(61)
		p := []float64{0, 1, rng.Float64()}[min(trial, 2)]
		adj := tensor.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					adj.Set(i, j, 1)
					adj.Set(j, i, 1)
				}
			}
		}
		csr := tensor.CSRFromDense(adj)
		csr.Val, csr.Symmetric = nil, true // implicit ones, like an occlusion frame
		graphs = append(graphs, graph{fmt.Sprintf("random %d (n=%d p=%.2f)", trial, n, p), csr})
	}
	frame := func(name string, pos []geom.Vec2) {
		g := occlusion.BuildStatic(0, pos, occlusion.DefaultAvatarRadius)
		graphs = append(graphs, graph{name, g.AdjacencyCSR()})
	}
	frame("edgeless frame", []geom.Vec2{{}, {X: 8}, {Z: 8}, {X: -8}, {Z: -8}, {X: 8, Z: 8}})
	frame("clique frame", []geom.Vec2{{}, {X: 0.04}, {X: -0.04}, {Z: 0.04}, {Z: -0.04}})
	room := crowd.Rect{Max: geom.Vec2{X: 4, Z: 4}}
	tr := crowd.NewSimulator(room, 30, 11, crowd.Config{}).Run(5, 0.5)
	for ti, f := range occlusion.BuildDOG(0, tr, occlusion.DefaultAvatarRadius).Frames {
		graphs = append(graphs, graph{fmt.Sprintf("crowd frame %d", ti), f.AdjacencyCSR()})
	}

	for _, gr := range graphs {
		n := gr.adj.Rows
		for _, dims := range [][2]int{{3, 2}, {4, 8}, {21, 8}, {8, 8}, {8, 1}} {
			p := NewParams()
			g := NewGraphConv(p, rng, "gc", dims[0], dims[1])
			h := tensor.Randn(rng, n, dims[0], 1)
			run := func(conv func(h *tensor.Tensor) *tensor.Tensor) []*tensor.Matrix {
				p.ZeroGrad()
				hv := tensor.Variable(h.Clone())
				out := conv(hv)
				tensor.Backward(tensor.Sum(tensor.Mul(out, out)))
				return []*tensor.Matrix{out.Value, g.M1.Grad(), g.M2.Grad(), hv.Grad()}
			}
			sparse := run(func(h *tensor.Tensor) *tensor.Tensor { return g.ForwardSparse(h, gr.adj) })
			dense := run(func(h *tensor.Tensor) *tensor.Tensor { return denseConv(g, h, gr.adj.Dense()) })
			for k, what := range []string{"value", "M1 gradient", "M2 gradient", "h gradient"} {
				for i, v := range dense[k].Data {
					if math.Float64bits(v) != math.Float64bits(sparse[k].Data[i]) {
						t.Fatalf("%s, %d→%d: %s [%d] sparse %v, dense %v",
							gr.name, dims[0], dims[1], what, i, sparse[k].Data[i], v)
					}
				}
			}
		}
	}
}

// TestTrainBPTT drives the truncated-BPTT loop with step losses
// l_t = (t+1)·w: it must update and cut after every full window and after
// the last step, back-propagate each window's mean (so the pre-clip
// gradient norm of an update is the mean of its window's t+1), return the
// summed step losses, stop a NaN window before the optimizer steps, and
// count a step that returns no loss toward no window.
func TestTrainBPTT(t *testing.T) {
	for _, c := range []struct {
		name          string
		steps, window int
		nanAt         int   // step whose loss is NaN, or -1
		none          []int // steps that return no loss
		cuts          []int // the steps after which the loop updates and cuts
		gradNorm      float64
	}{
		{"partial last window", 23, 10, -1, nil, []int{9, 19, 22}, 5.5 + 15.5 + 22},
		{"whole windows", 20, 10, -1, nil, []int{9, 19}, 5.5 + 15.5},
		{"window longer than the episode", 7, 10, -1, nil, []int{6}, 4},
		{"NaN loss", 5, 10, 3, nil, nil, 0},
		{"steps without a loss", 7, 2, -1, []int{1, 2, 5, 6}, []int{3, 6}, 2.5 + 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewParams()
			w := p.Register("w", tensor.Ones(1, 1))
			opt := NewAdam(p, 0.1)
			var cuts []int
			cur, sum := 0, 0.0
			loss, gradNorm, updates, err := TrainBPTT(opt, c.steps, c.window, func(step int) *tensor.Tensor {
				cur = step
				if slices.Contains(c.none, step) {
					return nil
				}
				scale := float64(step + 1)
				if step == c.nanAt {
					scale = math.NaN()
				}
				l := tensor.Scale(w, scale)
				sum += l.Value.Data[0]
				return l
			}, func() { cuts = append(cuts, cur) })
			if (err != nil) != (c.nanAt >= 0) {
				t.Fatalf("err = %v", err)
			}
			if !reflect.DeepEqual(cuts, c.cuts) {
				t.Errorf("cuts after steps %v, want %v", cuts, c.cuts)
			}
			if updates != len(c.cuts) || opt.step != len(c.cuts) {
				t.Errorf("%d updates, %d optimizer steps, want %d", updates, opt.step, len(c.cuts))
			}
			if math.Abs(gradNorm-c.gradNorm) > 1e-12 {
				t.Errorf("summed gradient norm %v, want %v", gradNorm, c.gradNorm)
			}
			if err != nil {
				if w.Value.Data[0] != 1 {
					t.Errorf("NaN window moved the weight to %v", w.Value.Data[0])
				}
				return
			}
			if loss != sum {
				t.Errorf("loss %v, want the summed step losses %v", loss, sum)
			}
		})
	}
}

// bpttNet is a small recurrent model for the BPTT loop's arena tests: a
// linear input layer and a graph convolution over a ring feed a GRU cell,
// whose state carries from step to step, and a linear head scores every
// node. Every matrix of its tape descends from a parameter, so all of them
// come from the optimizer's arena.
type bpttNet struct {
	p    *Params
	opt  *Adam
	in   *Linear
	conv *GraphConv
	cell *GRUCell
	head *Linear
	adj  *tensor.CSR
	xs   []*tensor.Matrix // one input per step
}

func newBPTTNet(seed int64, n, steps int) *bpttNet {
	rng := rand.New(rand.NewSource(seed))
	p := NewParams()
	rowPtr, col := make([]int32, n+1), make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		lo, hi := int32((i+n-1)%n), int32((i+1)%n)
		col = append(col, min(lo, hi), max(lo, hi))
		rowPtr[i+1] = int32(len(col))
	}
	net := &bpttNet{
		p:    p,
		in:   NewLinear(p, rng, "in", 3, 8),
		conv: NewGraphConv(p, rng, "conv", 8, 8),
		cell: NewGRUCell(p, rng, "gru", 8, 8),
		head: NewLinear(p, rng, "head", 8, 1),
		adj:  tensor.NewCSR(n, n, rowPtr, col, nil, true),
	}
	net.opt = NewAdam(p, 0.01)
	for t := 0; t < steps; t++ {
		net.xs = append(net.xs, tensor.Randn(rng, n, 3, 1))
	}
	return net
}

// episode trains one pass over the inputs, detaching the GRU state at every
// window boundary; keep, if set, sees each detached state together with
// the live one it copies, before the window's graph goes back to the arena.
func (net *bpttNet) episode(window int, keep func(detached, live *tensor.Tensor)) error {
	h := tensor.Constant(tensor.NewMatrix(net.adj.Rows, 8))
	_, _, _, err := TrainBPTT(net.opt, len(net.xs), window, func(t int) *tensor.Tensor {
		x := tensor.ReLU(net.conv.ForwardSparse(tensor.ReLU(net.in.Forward(tensor.Constant(net.xs[t]))), net.adj))
		h = net.cell.Forward(x, h)
		y := tensor.Sigmoid(net.head.Forward(h))
		return tensor.Mean(tensor.Mul(y, y))
	}, func() {
		d := tensor.Detach(h)
		if keep != nil {
			keep(d, h)
		}
		h = d
	})
	return err
}

// bits returns every parameter's float64 bits in registration order.
func (net *bpttNet) bits() []uint64 {
	var out []uint64
	for _, name := range net.p.Names() {
		for _, v := range net.p.Get(name).Value.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestTrainBPTTConcurrentRunsMatchSequential trains two models on two
// goroutines at once, each through its own optimizer's arena, and requires
// the parameter bits that training them one after the other gives. Under
// the race detector it also checks that the runs share no tape state.
func TestTrainBPTTConcurrentRunsMatchSequential(t *testing.T) {
	train := func(seed int64) []uint64 {
		net := newBPTTNet(seed, 30, 10)
		for epoch := 0; epoch < 3; epoch++ {
			if err := net.episode(4, nil); err != nil {
				t.Error(err)
			}
		}
		return net.bits()
	}
	seeds := []int64{1, 2}
	want := make([][]uint64, len(seeds))
	for i, seed := range seeds {
		want[i] = train(seed)
	}
	got := make([][]uint64, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = train(seed)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("model %d: concurrent training ended on other parameter bits than sequential training", i)
		}
	}
}

// TestTrainBPTTDetachedStateSurvivesReset keeps every state cut detaches
// and a copy of the live value it was detached from. Later windows reuse
// the arena's buffers, so a detached state that shared one would change;
// each must still equal its copy when training ends.
func TestTrainBPTTDetachedStateSurvivesReset(t *testing.T) {
	net := newBPTTNet(4, 30, 10)
	type kept struct {
		detached *tensor.Tensor
		want     []float64
	}
	var all []kept
	for epoch := 0; epoch < 2; epoch++ {
		if err := net.episode(3, func(d, live *tensor.Tensor) {
			all = append(all, kept{d, append([]float64(nil), live.Value.Data...)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(all) != 8 {
		t.Fatalf("%d cuts, want 8", len(all))
	}
	for i, k := range all {
		for j, v := range k.detached.Value.Data {
			if math.Float64bits(v) != math.Float64bits(k.want[j]) {
				t.Fatalf("cut %d: detached state [%d] = %v after training, %v when detached", i, j, v, k.want[j])
			}
		}
	}
}
