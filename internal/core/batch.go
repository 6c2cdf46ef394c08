package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"after/internal/dataset"
	"after/internal/nn"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
	"after/internal/tensor"
)

// BatchOptions configures a batched inference session.
type BatchOptions struct {
	// Float32 routes the forward pass through the float32 kernels: weights
	// are rounded once at session start and all activations accumulate in
	// single precision. Serving-only fast path — decoded sets can differ
	// from the float64 oracle near the decision threshold, so training,
	// evaluation tables, and the CI utility gate never enable it. The
	// utility deviation is bounded by the batch property tests and
	// documented in EXPERIMENTS.md.
	Float32 bool
}

// batchState is one target's recurrent state inside a BatchSession: the
// previous frame, r_{t-1} and h_{t-1}, stored as raw slices in the pass's
// precision because inference never touches the autodiff tape, and MIA's
// degree cache, which training carries across an episode the same way.
type batchState[F tensor.Float] struct {
	prevFrame *occlusion.StaticGraph
	prevR     []F
	prevH     []F
	degrees   DegreeCache
}

// precision is what the fused pass does differently per element type. One
// value per precision is picked in StartBatchSession from
// BatchOptions.Float32; the pass itself, the convolution and the kernels
// exist once, generic over F.
type precision[F tensor.Float] struct {
	kern    *tensor.Kernels[F] // bound to this precision's AVX2 entry points
	scratch tensor.Pool[F]
	// weight turns a model parameter into the pass's weight matrix: float64
	// views the live parameter, which Adam updates in place; float32 rounds a
	// copy once per session.
	weight func(*tensor.Matrix) *tensor.Dense[F]
	// sigmoidInto is the sigmoid epilogue dst = σ(dst + a) over whole slices,
	// so its element loop stays monomorphic.
	sigmoidInto func(dst, a []F)
	// reassociate lets a narrowing convolution compute A·(in·M2) instead of
	// (A·in)·M2 (see conv). Float64 never reassociates: its accumulation
	// order is contractual.
	reassociate bool
}

var (
	prec64 = &precision[float64]{
		kern:        tensor.F64,
		weight:      func(m *tensor.Matrix) *tensor.Dense[float64] { return (*tensor.Dense[float64])(m) },
		sigmoidInto: sigmoidInto64,
	}
	prec32 = &precision[float32]{
		kern:        tensor.F32,
		weight:      tensor.ToMatrix32,
		sigmoidInto: sigmoidInto32,
		reassociate: true,
	}
)

// convWeights holds one graph convolution's (M1, M2) at the pass's
// precision.
type convWeights[F tensor.Float] struct{ m1, m2 *tensor.Dense[F] }

// fusedPass is a BatchSession's forward pass at the session's precision,
// together with its targets' recurrent state. Callers hold the session's
// mutex.
type fusedPass interface {
	step(targets []int, frames []*occlusion.StaticGraph) [][]bool
	// probabilities returns a float64 copy of target's last r_t, or nil
	// before its first step.
	probabilities(target int) []float64
}

// pass is one BatchSession's fused forward pass at precision F.
type pass[F tensor.Float] struct {
	*precision[F]
	b                *BatchSession
	states           map[int]*batchState[F]
	col              []float64 // one target's r_t, widened for decoding
	pdr1, pdr2       convWeights[F]
	lwp1, lwp2, lwp3 convWeights[F] // zero without LWP
}

// newPass binds b's model weights at precision p.
func newPass[F tensor.Float](b *BatchSession, p *precision[F]) *pass[F] {
	weights := func(gc *nn.GraphConv) convWeights[F] {
		if gc == nil {
			return convWeights[F]{}
		}
		return convWeights[F]{p.weight(gc.M1.Value), p.weight(gc.M2.Value)}
	}
	m := b.model
	return &pass[F]{
		precision: p,
		b:         b,
		states:    make(map[int]*batchState[F]),
		col:       make([]float64, b.room.N),
		pdr1:      weights(m.pdr1),
		pdr2:      weights(m.pdr2),
		lwp1:      weights(m.lwp1),
		lwp2:      weights(m.lwp2),
		lwp3:      weights(m.lwp3),
	}
}

// state returns (creating if needed) the recurrent state of one target.
func (ps *pass[F]) state(target int) *batchState[F] {
	st := ps.states[target]
	if st == nil {
		n := ps.b.room.N
		st = &batchState[F]{prevR: make([]F, n), prevH: make([]F, n*ps.b.model.cfg.Hidden)}
		ps.states[target] = st
	}
	return st
}

func (ps *pass[F]) probabilities(target int) []float64 {
	st := ps.states[target]
	if st == nil {
		return nil
	}
	out := make([]float64, len(st.prevR))
	for w, v := range st.prevR {
		out[w] = float64(v)
	}
	return out
}

// BatchSession is POSHGNN's one inference path: it runs the forward pass for
// many targets of one room in a single fused pass per step, and a lone
// target is a width-1 batch (see Session). The K targets' feature matrices
// are stacked target-major into one N×(K·d) batch, every graph convolution
// runs as one multi-column SpMM + blocked projection (tensor.Kernels'
// SpMMBatchInto / MatMulBlocksInto), and all intermediate activations live
// in pooled scratch — no autodiff tape is built. One generic pass serves
// both precisions (see precision).
//
// The float64 path is bit-identical to the autodiff forward pass training
// uses (per column block every kernel replicates its accumulation order;
// pinned against a test-side reference stepper by
// TestBatchStepMatchesSequential). Targets may join at any step — state is
// tracked per target and missing targets simply keep their previous state —
// so the serving micro-batcher can drive one BatchSession per room with
// whatever subset of targets each batch holds.
//
// A BatchSession is safe for concurrent StepTargets calls (an internal
// mutex serializes them), but per target the usual temporal contract holds:
// feed each target's frames in order.
type BatchSession struct {
	model *POSHGNN
	room  *dataset.Room

	mu    sync.Mutex
	fused fusedPass     // the pass at the session's precision, with per-target state
	adjs  []*tensor.CSR // reused per-step graph list (len = batch K)

	// traceParent parents the next batch.step span (atomic: serving workers
	// may set it concurrently with another worker's StepTargets). curSpan is
	// the in-flight batch.step span id the phase spans hang off; it is only
	// touched under mu.
	traceParent atomic.Uint64
	curSpan     obs.SpanID

	// profLabels carries the (room, rec) pprof label set phase switches key
	// off (atomic for the same reason as traceParent; nil = unlabeled).
	profLabels atomic.Pointer[prof.Labels]
}

// SetTraceParent parents subsequent StepTargets spans (batch.step and its
// mia/pdr/lwp/decode phases) under parent, implementing sim.TraceCarrier so
// the serving layer's batch span adopts the fused forward pass.
func (b *BatchSession) SetTraceParent(parent obs.SpanID) {
	b.traceParent.Store(uint64(parent))
}

// SetProfLabels attaches a (room, rec) pprof label set to subsequent
// StepTargets calls, implementing prof.Carrier: each forward phase switches
// the calling goroutine to its phase-refined labels so continuous-profiler
// samples attribute to the same mia/pdr/lwp/decode/spmm coordinates the span
// tracer names. nil detaches.
func (b *BatchSession) SetProfLabels(l *prof.Labels) {
	b.profLabels.Store(l)
}

// StartBatchSession begins batched inference over room. Every target of the
// room may be stepped through the returned session; per-target recurrent
// state is created on first use.
func (m *POSHGNN) StartBatchSession(room *dataset.Room, opt BatchOptions) *BatchSession {
	b := &BatchSession{model: m, room: room}
	if opt.Float32 {
		b.fused = newPass(b, prec32)
	} else {
		b.fused = newPass(b, prec64)
	}
	return b
}

// StepTargets advances every listed target by one step in a single fused
// forward pass and returns each target's rendered set, index-aligned with
// targets. frames[k] must be target k's occlusion frame for step t (its
// Target field set accordingly). Targets should be distinct — duplicates are
// harmless (identical columns) but advance the shared state once per copy.
func (b *BatchSession) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	if len(targets) == 0 || len(targets) != len(frames) {
		panic(fmt.Sprintf("core: StepTargets %d targets, %d frames", len(targets), len(frames)))
	}
	for _, target := range targets {
		if target < 0 || target >= b.room.N {
			panic(fmt.Sprintf("core: target %d out of range", target))
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sp := obs.BeginChild("batch.step", obs.SpanID(b.traceParent.Load()))
	b.curSpan = sp.ID()
	defer sp.End()
	// Enter the batch phase for the fused pass; restore the ambient (room,
	// rec) labels on exit so the caller's goroutine doesn't keep reporting a
	// finished phase. Load-and-branch no-ops when profiling is off.
	lbl := b.profLabels.Load()
	lbl.Set(prof.PhaseBatch)
	defer lbl.Set(prof.PhaseNone)
	return b.fused.step(targets, frames)
}

// elementwise activation selectors for the fused conv epilogues.
const (
	actReLU = iota
	actSigmoid
)

// conv runs one graph convolution over the whole batch:
// dst = act(in·M1 + (A_k·in)·M2 per column block k). The additive order —
// the dense term fully materialized first, the aggregated term second, then
// a single elementwise add — replicates GraphConv.ForwardSparse exactly, so
// every float64 column stays bit-identical to the autodiff forward pass.
//
// A precision that may reassociate takes one liberty when the convolution
// narrows (dout < din): the aggregated term is computed as A·(in·M2) — the
// same value under exact arithmetic, but the sparse gather then runs at the
// output width (1 or 8 columns instead of 8 or 16), roughly halving the
// model's total SpMM traffic.
//
// lbl/ret refine the profiling attribution: the sparse gather runs under the
// spmm phase label and the enclosing phase (ret) is restored afterwards, so
// flamegraphs separate SpMM bandwidth from the dense projections.
func (ps *pass[F]) conv(dst, in *tensor.Dense[F], adjs []*tensor.CSR, w convWeights[F], act int, lbl *prof.Labels, ret prof.Phase) {
	ws, kern := &ps.scratch, ps.kern
	k := len(adjs)
	kern.MatMulBlocksInto(dst, in, w.m1, k)
	var agg *tensor.Dense[F]
	if ps.reassociate && w.m2.Cols < w.m2.Rows {
		hm := ws.Get(in.Rows, k*w.m2.Cols)
		kern.MatMulBlocksInto(hm, in, w.m2, k)
		agg = ws.Get(dst.Rows, dst.Cols)
		lbl.Set(prof.PhaseSpMM)
		kern.SpMMBatchInto(agg, adjs, hm)
		lbl.Set(ret)
		ws.Put(hm)
	} else {
		msg := ws.Get(in.Rows, in.Cols)
		lbl.Set(prof.PhaseSpMM)
		kern.SpMMBatchInto(msg, adjs, in)
		lbl.Set(ret)
		agg = ws.Get(dst.Rows, dst.Cols)
		kern.MatMulBlocksInto(agg, msg, w.m2, k)
		ws.Put(msg)
	}
	switch act {
	case actReLU:
		kern.AddReLUInto(dst.Data, agg.Data)
	case actSigmoid:
		ps.sigmoidInto(dst.Data, agg.Data)
	}
	ws.Put(agg)
}

// step is the batched forward pass: MIA fills the wide feature matrices,
// PDR and LWP run as fused convolutions, and each target's column is
// scattered back into its state and decoded.
func (ps *pass[F]) step(targets []int, frames []*occlusion.StaticGraph) [][]bool {
	b := ps.b
	m, room := b.model, b.room
	n, bk, hid := room.N, len(targets), m.cfg.Hidden
	useLWP := m.cfg.UseLWP
	ws := &ps.scratch
	lbl := b.profLabels.Load()

	spMIA := obs.BeginChild("mia", b.curSpan)
	lbl.Set(prof.PhaseMIA)
	if cap(b.adjs) < bk {
		b.adjs = make([]*tensor.CSR, bk)
	}
	adjs := b.adjs[:bk]
	x := ws.Get(n, bk*featureDim)
	mask := ws.Get(n, bk)
	prevR := ws.Get(n, bk)
	var delta, prevH *tensor.Dense[F]
	var deltaD, prevHD []F // nil without LWP
	if useLWP {
		delta, prevH = ws.Get(n, bk*deltaDim), ws.Get(n, bk*hid)
		deltaD, prevHD = delta.Data, prevH.Data
	}
	for k, target := range targets {
		st := ps.state(target)
		fill(&m.mia, room, frames[k], st.prevFrame, &st.degrees, k, bk, featureDim, x.Data, mask.Data, deltaD)
		gatherColumn(st, prevR.Data, prevHD, k, bk, hid)
		adjs[k] = frames[k].AdjacencyCSR()
	}
	spMIA.End()

	spPDR := obs.BeginChild("pdr", b.curSpan)
	lbl.Set(prof.PhasePDR)
	h := ws.Get(n, bk*hid)
	ps.conv(h, x, adjs, ps.pdr1, actReLU, lbl, prof.PhasePDR)
	rt := ws.Get(n, bk)
	ps.conv(rt, h, adjs, ps.pdr2, actSigmoid, lbl, prof.PhasePDR)
	spPDR.End()

	r := ws.Get(n, bk)
	if !useLWP {
		lbl.Set(prof.PhaseBatch)
		for i, mv := range mask.Data {
			r.Data[i] = mv * rt.Data[i]
		}
	} else {
		spLWP := obs.BeginChild("lwp", b.curSpan)
		lbl.Set(prof.PhaseLWP)
		lwpIn := ws.Get(n, bk*(featureDim+deltaDim+hid+1))
		lwpInput(lwpIn.Data, x.Data, delta.Data, prevH.Data, prevR.Data, bk, hid)
		z1 := ws.Get(n, bk*hid)
		ps.conv(z1, lwpIn, adjs, ps.lwp1, actReLU, lbl, prof.PhaseLWP)
		z2 := ws.Get(n, bk*hid)
		ps.conv(z2, z1, adjs, ps.lwp2, actReLU, lbl, prof.PhaseLWP)
		sigma := ws.Get(n, bk)
		ps.conv(sigma, z2, adjs, ps.lwp3, actSigmoid, lbl, prof.PhaseLWP)
		gate(r.Data, mask.Data, rt.Data, sigma.Data, prevR.Data)
		ws.Put(lwpIn)
		ws.Put(z1)
		ws.Put(z2)
		ws.Put(sigma)
		spLWP.End()
	}

	// Scatter recurrent state back and decode each target's column.
	spDecode := obs.BeginChild("decode", b.curSpan)
	lbl.Set(prof.PhaseDecode)
	out := make([][]bool, bk)
	col := tensor.Matrix{Rows: n, Cols: 1, Data: ps.col}
	for k, target := range targets {
		st := ps.state(target)
		st.prevFrame = frames[k]
		scatterColumn(st, col.Data, r.Data, h.Data, k, bk, hid)
		out[k] = b.decode(&col, frames[k], target)
	}
	spDecode.End()

	ws.Put(x)
	ws.Put(mask)
	ws.Put(prevR)
	if useLWP {
		ws.Put(delta)
		ws.Put(prevH)
	}
	ws.Put(h)
	ws.Put(rt)
	ws.Put(r)
	return out
}

// gatherColumn copies one target's r_{t-1} and h_{t-1} into column block k
// of the wide matrices, mirroring scatterColumn; prevH is nil without LWP.
func gatherColumn[F tensor.Float](st *batchState[F], prevR, prevH []F, k, bk, hid int) {
	for w, r := range st.prevR {
		prevR[w*bk+k] = r
		if prevH != nil {
			copy(prevH[(w*bk+k)*hid:][:hid], st.prevH[w*hid:(w+1)*hid])
		}
	}
}

// lwpInput assembles LWP's input [x̂ ‖ Δ ‖ h_{t-1} ‖ r_{t-1}] per column
// block — the wide layout of tensor.Concat's column order.
func lwpInput[F tensor.Float](dst, x, delta, prevH, prevR []F, bk, hid int) {
	width := featureDim + deltaDim + hid + 1
	for i := 0; i < len(prevR)/bk; i++ {
		row := dst[i*bk*width : (i+1)*bk*width]
		for k := 0; k < bk; k++ {
			o, c := k*width, i*bk+k
			copy(row[o:o+featureDim], x[c*featureDim:(c+1)*featureDim])
			copy(row[o+featureDim:o+featureDim+deltaDim], delta[c*deltaDim:(c+1)*deltaDim])
			copy(row[o+featureDim+deltaDim:o+width-1], prevH[c*hid:(c+1)*hid])
			row[o+width-1] = prevR[c]
		}
	}
}

// gate applies LWP's preservation gate r = m ⊗ [(1−σ)⊗r̃ + σ⊗r_{t−1}] in
// the autodiff forward pass's scalar order.
func gate[F tensor.Float](r, mask, rt, sigma, prevR []F) {
	for i, mv := range mask {
		s := sigma[i]
		r[i] = mv * ((1-s)*rt[i] + s*prevR[i])
	}
}

// scatterColumn copies column block k of r and h back into one target's
// recurrent state and widens its probabilities into col for decoding.
func scatterColumn[F tensor.Float](st *batchState[F], col []float64, r, h []F, k, bk, hid int) {
	for w := range st.prevR {
		c := w*bk + k
		st.prevR[w] = r[c]
		col[w] = float64(r[c])
		copy(st.prevH[w*hid:(w+1)*hid], h[c*hid:(c+1)*hid])
	}
}

// decode turns one target's probability column into the rendered set:
// greedy de-occlusion by default, plain thresholding under RawDecode,
// non-positive budget meaning unlimited.
func (b *BatchSession) decode(r *tensor.Matrix, frame *occlusion.StaticGraph, target int) []bool {
	cfg := &b.model.cfg
	if cfg.RawDecode {
		rendered := make([]bool, b.room.N)
		budget := cfg.MaxRender
		admitted := 0
		for w := 0; w < b.room.N; w++ {
			if w == target {
				continue
			}
			if budget > 0 && admitted >= budget {
				break
			}
			if r.Data[w] >= cfg.Threshold {
				rendered[w] = true
				admitted++
			}
		}
		return rendered
	}
	return decodeRecommendation(r, frame, target, cfg.Threshold, cfg.MaxRender)
}

// sigmoidInto64 is the float64 sigmoid epilogue dst = σ(dst + a), on
// math.Exp: the float64 bits are contractual.
func sigmoidInto64(dst, a []float64) {
	for i, v := range a {
		dst[i] = 1 / (1 + math.Exp(-(dst[i] + v)))
	}
}

// sigmoidInto32 is the float32 sigmoid epilogue, on fastSigmoid32.
func sigmoidInto32(dst, a []float32) {
	for i, v := range a {
		dst[i] = fastSigmoid32(dst[i] + v)
	}
}

// fastSigmoid32 evaluates 1/(1+e^{−z}) with a range-reduced degree-5
// polynomial exponential instead of math.Exp. The polynomial's relative
// error (≤ ~3e-6 over the reduced range |r| ≤ ln2/2) lands the sigmoid
// within ~1e-6 of the math.Exp value — far inside the float32 path's 1e-3
// probability tolerance — while skipping math.Exp's call and
// high-precision reconstruction. Only the float32 path uses it: the float64
// sigmoid stays on math.Exp, whose bits are contractual.
func fastSigmoid32(z float32) float32 {
	x := -float64(z)
	// e^{±45} saturates the sigmoid past any float32 distinction.
	if x > 45 {
		return 0
	}
	if x < -45 {
		return 1
	}
	k := math.Floor(x*1.4426950408889634 + 0.5) // round(x/ln2)
	r := x - k*0.6931471805599453
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	e := p * math.Float64frombits(uint64(int64(k)+1023)<<52)
	return float32(1 / (1 + e))
}

// Session is POSHGNN's recurrent inference state for one (room, target)
// episode: a width-1 view of a BatchSession. Every Step is a one-column
// StepTargets call, so a target stepped alone runs the same fused kernels
// over the same state layout as one stepped inside a batch. Like any
// episode, a Session expects its frames in temporal order.
type Session struct {
	b       *BatchSession
	targets [1]int
	frames  [1]*occlusion.StaticGraph
}

// StartEpisode begins float64 inference for target in room on a fresh
// BatchSession of its own.
func (m *POSHGNN) StartEpisode(room *dataset.Room, target int) *Session {
	return m.StartBatchSession(room, BatchOptions{}).View(target)
}

// View returns the width-1 Session of target inside this batch session. It
// shares the target's recurrent state with StepTargets calls that include
// the target.
func (b *BatchSession) View(target int) *Session {
	if target < 0 || target >= b.room.N {
		panic(fmt.Sprintf("core: target %d out of range", target))
	}
	return &Session{b: b, targets: [1]int{target}}
}

// Step consumes the occlusion frame for time t and returns the rendered set
// (rendered[w] = true ⇔ w ∈ F_t(v)).
func (s *Session) Step(t int, frame *occlusion.StaticGraph) []bool {
	s.frames[0] = frame
	return s.b.StepTargets(t, s.targets[:], s.frames[:])[0]
}

// Probabilities returns a copy of the last step's recommendation vector r_t,
// useful for diagnostics; nil before the first Step.
func (s *Session) Probabilities() []float64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.b.fused.probabilities(s.targets[0])
}

// SetProfLabels implements prof.Carrier by forwarding to the underlying
// BatchSession, so a solo episode is attributed like a fused one.
func (s *Session) SetProfLabels(l *prof.Labels) { s.b.SetProfLabels(l) }
