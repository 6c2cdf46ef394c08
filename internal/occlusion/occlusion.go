// Package occlusion implements the paper's occlusion machinery (Sec. III-B):
// the circular-arc occlusion-graph converter, the dynamic occlusion graph
// (DOG, Definition 4), and the visibility indicator 1[v ⇒ w] that gates the
// AFTER utility.
//
// The flat-world converter places the target user at the centre of her
// 360-degree view circle; every other user occupies the arc subtended by a
// disk of the avatar radius at her distance. Two users are connected in the
// static occlusion graph exactly when their arcs overlap.
//
// BuildStatic finds the overlapping pairs with an endpoint-sort sweep over
// the view circle in O(N log N + E) instead of the O(N²) all-pairs arc test
// (retained as BuildStaticBrute, the reference implementation the property
// tests compare against). At the paper's Table VI scale (N=500, T=100,
// several targets) the sweep is what keeps DOG construction off the critical
// path.
package occlusion

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/obs"
	"after/internal/parallel"
	"after/internal/tensor"
)

// Interface is the immersiveness level of a user's device (F3 in the
// paper): VR users join remotely, MR users are physically co-located.
type Interface uint8

const (
	// VR marks a remote participant in fully virtual mode.
	VR Interface = iota
	// MR marks an in-person participant whose body is physically present
	// for co-located users.
	MR
)

// String implements fmt.Stringer.
func (i Interface) String() string {
	if i == MR {
		return "MR"
	}
	return "VR"
}

// DefaultAvatarRadius is the disk radius (metres) used to convert avatar
// bodies into view arcs; roughly the shoulder half-width of an adult.
const DefaultAvatarRadius = 0.25

// StaticGraph is the occlusion graph O_t^v of one time instance for one
// target user: a circular-arc graph over all other users plus the isolated
// target node.
type StaticGraph struct {
	// N is the total user count, including the target.
	N int
	// Target is the index of the target user v (an isolated node).
	Target int
	// Arcs[w] is the view arc of user w from the target's position;
	// Arcs[Target] is the zero Arc and never consulted.
	Arcs []geom.Arc
	// Dist[w] is the distance from the target to w; Dist[Target] = 0.
	Dist []float64

	neighbors [][]int32
	// flatCol is the single backing array the sweep converter scatters every
	// neighbor list into (rows concatenated in ascending node order). When
	// present it doubles as the CSR column array of the adjacency — the
	// zero-copy hand-off AdjacencyCSR exploits. The brute-force converter
	// leaves it nil and AdjacencyCSR concatenates instead.
	flatCol []int32

	// Memoized derived structures: a DOG frame is shared by every
	// recommender evaluated on the same scene, and before memoization each
	// of the 4+ GNN methods rebuilt the dense N×N adjacency every step.
	adjOnce  sync.Once
	adj      *tensor.Matrix
	csrOnce  sync.Once
	csr      *tensor.CSR
	edgeOnce sync.Once
	edges    int
}

// newStaticGraph validates inputs and fills arcs and distances; the edge
// structure is left to the caller (sweep or brute force).
func newStaticGraph(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	n := len(positions)
	if target < 0 || target >= n {
		panic(fmt.Sprintf("occlusion: target %d out of range [0,%d)", target, n))
	}
	if radius <= 0 {
		panic("occlusion: non-positive avatar radius")
	}
	g := &StaticGraph{
		N:         n,
		Target:    target,
		Arcs:      make([]geom.Arc, n),
		Dist:      make([]float64, n),
		neighbors: make([][]int32, n),
	}
	eye := positions[target]
	for w := 0; w < n; w++ {
		if w == target {
			continue
		}
		g.Arcs[w] = geom.ArcOf(eye, positions[w], radius)
		g.Dist[w] = eye.Dist(positions[w])
	}
	return g
}

// BuildStatic converts a snapshot of user positions into the target user's
// static occlusion graph. radius is the avatar disk radius. Edges are found
// with the endpoint-sort sweep; the result is the identical edge set the
// brute-force converter produces (a property the tests enforce against
// BuildStaticBrute on random rooms, wrap-around arcs included).
func BuildStatic(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	g := newStaticGraph(target, positions, radius)
	g.buildNeighborsSweep()
	return g
}

// BuildStaticBrute is the original O(N²) all-pairs converter, retained as
// the executable specification of the edge relation: the sweep must agree
// with it bit-for-bit. It remains useful for tiny rooms and as the baseline
// side of BenchmarkBuildStatic.
func BuildStaticBrute(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	g := newStaticGraph(target, positions, radius)
	for i := 0; i < g.N; i++ {
		if i == target {
			continue
		}
		for j := i + 1; j < g.N; j++ {
			if j == target {
				continue
			}
			if g.Arcs[i].Overlaps(g.Arcs[j]) {
				g.neighbors[i] = append(g.neighbors[i], int32(j))
				g.neighbors[j] = append(g.neighbors[j], int32(i))
			}
		}
	}
	return g
}

// sweepSlack inflates the candidate intervals of the sweep so that floating
// rounding in angle normalization and the 1e-12 tolerance inside
// geom.Arc.Overlaps can never hide a true edge from the candidate pass. The
// exact Overlaps predicate then filters candidates, so the final edge set
// matches the brute-force reference exactly.
const sweepSlack = 1e-9

// buildNeighborsSweep fills g.neighbors with the occlusion edges in
// O(N log N + E): arcs become closed angular intervals, interval starts are
// sorted once, and each arc scans only the starts that fall inside its own
// (slack-inflated) interval. Two circular arcs intersect exactly when one's
// start lies inside the other, so every true edge is enumerated at least
// once; a symmetric membership test dedups pairs found from both sides, and
// the exact Arc.Overlaps predicate confirms each candidate.
//
// Full arcs (users standing within the avatar radius of the eye) cover the
// whole circle and overlap everyone; they are linked directly, which also
// handles co-located users at distance ≈ 0.
func (g *StaticGraph) buildNeighborsSweep() {
	n := g.N
	// Partition non-target users into full arcs and proper arcs.
	full := make([]int32, 0, 4)
	items := make([]int32, 0, n-1)
	for w := 0; w < n; w++ {
		if w == g.Target {
			continue
		}
		if g.Arcs[w].Full() {
			full = append(full, int32(w))
		} else {
			items = append(items, int32(w))
		}
	}

	// Confirmed edges accumulate as (a, b) pairs in one flat buffer; the
	// adjacency is materialized afterwards in two linear passes. Growing a
	// single buffer is far cheaper than growing N little per-node slices
	// (the former allocation hotspot of the converter).
	pairs := make([]int32, 0, 8*n)

	// Full arcs overlap every other user (Arc.Overlaps short-circuits on
	// Full). Link full×full and full×proper directly.
	for i, f := range full {
		for _, h := range full[i+1:] {
			pairs = append(pairs, f, h)
		}
		for _, w := range items {
			pairs = append(pairs, f, w)
		}
	}

	if len(items) > 1 {
		// Inflated interval of arc w: [start[w], start[w]+width[w]] mod 2π.
		start := make([]float64, n)
		width := make([]float64, n)
		for _, w := range items {
			a := g.Arcs[w]
			start[w] = geom.NormalizeAngle(a.Center - a.HalfWidth - sweepSlack)
			width[w] = 2 * (a.HalfWidth + sweepSlack)
		}
		// member reports whether angle s lies in arc w's inflated interval,
		// measured as the forward (ccw) distance from the interval start.
		member := func(s float64, w int32) bool {
			d := s - start[w]
			if d < 0 {
				d += 2 * math.Pi
			}
			return d <= width[w]
		}
		order := make([]int32, len(items))
		copy(order, items)
		slices.SortFunc(order, func(a, b int32) int {
			if start[a] != start[b] {
				if start[a] < start[b] {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		// Doubling the sorted arrays turns the cyclic scan into a straight
		// linear one (no modulo on the hot path).
		m := len(order)
		order2 := make([]int32, 2*m)
		starts2 := make([]float64, 2*m)
		for k, w := range order {
			order2[k], order2[k+m] = w, w
			starts2[k], starts2[k+m] = start[w], start[w]
		}
		for p, i := range order {
			// Scan forward cyclically while starts stay inside i's interval.
			// Starts are sorted, so the forward distance grows monotonically
			// over one full cycle and the scan stops at the first miss.
			si, wi := start[i], width[i]
			arcI := g.Arcs[i]
			for q := p + 1; q < p+m; q++ {
				d := starts2[q] - si
				if d < 0 {
					d += 2 * math.Pi
				}
				if d > wi {
					break
				}
				j := order2[q]
				// Dedup pairs that each find the other: the lower index wins
				// the right to emit.
				if j < i && member(si, j) {
					continue
				}
				if arcI.Overlaps(g.Arcs[j]) {
					pairs = append(pairs, i, j)
				}
			}
		}
	}

	// Materialize the adjacency from the pair buffer in CSR form, each list
	// in canonical ascending order (what the brute-force nested loop
	// produced), so downstream iteration is reproducible and the two
	// converters are directly comparable. Pass 1 counts degrees, pass 2
	// scatters the raw lists into one flat backing array, pass 3 transposes:
	// visiting sources u in ascending order appends each u to its neighbors'
	// lists already sorted — no per-list sort needed (the former profile
	// hotspot).
	deg := make([]int32, n)
	for _, w := range pairs {
		deg[w]++
	}
	entries := len(pairs) // each pair contributes one entry per endpoint
	raw := make([]int32, entries)
	cursor := make([]int32, n)
	off := int32(0)
	for w := 0; w < n; w++ {
		cursor[w] = off
		off += deg[w]
	}
	rawStart := make([]int32, n)
	copy(rawStart, cursor)
	for k := 0; k < len(pairs); k += 2 {
		a, b := pairs[k], pairs[k+1]
		raw[cursor[a]] = b
		cursor[a]++
		raw[cursor[b]] = a
		cursor[b]++
	}
	flat := make([]int32, entries)
	sorted := make([][]int32, n)
	for w := 0; w < n; w++ {
		base := rawStart[w]
		sorted[w] = flat[base : base : base+deg[w]]
	}
	for u := int32(0); int(u) < n; u++ {
		for _, w := range raw[rawStart[u]:cursor[u]] {
			sorted[w] = append(sorted[w], u)
		}
	}
	g.neighbors = sorted
	g.flatCol = flat
}

// Occludes reports whether users i and j overlap in the target's view (the
// occlusion-graph edge relation). The target never participates in edges.
func (g *StaticGraph) Occludes(i, j int) bool {
	if i == g.Target || j == g.Target || i == j {
		return false
	}
	return g.Arcs[i].Overlaps(g.Arcs[j])
}

// Neighbors returns the occlusion neighbors of w in ascending order. The
// slice is owned by the graph; callers must not mutate it.
func (g *StaticGraph) Neighbors(w int) []int32 { return g.neighbors[w] }

// EdgeCount returns the number of occlusion edges (memoized).
func (g *StaticGraph) EdgeCount() int {
	g.edgeOnce.Do(func() {
		total := 0
		for _, ns := range g.neighbors {
			total += len(ns)
		}
		g.edges = total / 2
	})
	return g.edges
}

// AdjacencyCSR returns A_t as a symmetric implicit-ones CSR pattern, the
// form every GNN path consumes: message passing is per-edge work, so the
// sparse kernels never pay the O(N²) a densified adjacency costs. For
// sweep-built graphs the column array is the converter's existing flat
// neighbor array — a zero-copy hand-off; brute-built graphs concatenate
// their per-node lists once. The CSR is memoized and shared by every caller
// (several recommenders step the same frame), so it must be treated as
// read-only; all kernels do.
func (g *StaticGraph) AdjacencyCSR() *tensor.CSR {
	g.csrOnce.Do(func() {
		rowPtr := make([]int32, g.N+1)
		total := 0
		for w, ns := range g.neighbors {
			total += len(ns)
			rowPtr[w+1] = int32(total)
		}
		col := g.flatCol
		if col == nil || len(col) != total {
			col = make([]int32, 0, total)
			for _, ns := range g.neighbors {
				col = append(col, ns...)
			}
		}
		g.csr = tensor.NewCSR(g.N, g.N, rowPtr, col, nil, true)
	})
	return g.csr
}

// AdjacencyMatrix materializes A_t as a dense 0/1 matrix. It is retained as
// a test/compat helper (property tests pin the sparse forward against it,
// and the `-exp scale` harness times the dense path it used to power); the
// inference and training paths consume AdjacencyCSR instead. The matrix is
// memoized and shared, so callers must treat it as read-only.
func (g *StaticGraph) AdjacencyMatrix() *tensor.Matrix {
	g.adjOnce.Do(func() {
		a := tensor.NewMatrix(g.N, g.N)
		for i, ns := range g.neighbors {
			for _, j := range ns {
				a.Set(i, int(j), 1)
			}
		}
		g.adj = a
	})
	return g.adj
}

// DOG is the dynamic occlusion graph O^v = (V, E^v, T) of Definition 4: one
// static occlusion graph per time step, all for the same target user.
type DOG struct {
	Target int
	Frames []*StaticGraph
}

// T returns the maximal time label (len(Frames)-1).
func (d *DOG) T() int { return len(d.Frames) - 1 }

// At returns the static occlusion graph at time step t.
func (d *DOG) At(t int) *StaticGraph { return d.Frames[t] }

// BuildDOG converts a full trajectory trace into the target user's dynamic
// occlusion graph, one frame per recorded step. Frames are independent, so
// they are built concurrently on the parallel worker pool; the result is
// identical for any worker count. Each conversion is a `dog` span (rolled up
// into the span.dog phase histogram when obs is enabled).
func BuildDOG(target int, tr *crowd.Trajectories, radius float64) *DOG {
	sp := obs.Begin("dog")
	d := &DOG{Target: target, Frames: make([]*StaticGraph, tr.Steps())}
	parallel.ForEach(tr.Steps(), func(t int) {
		d.Frames[t] = BuildStatic(target, tr.Pos[t], radius)
	})
	sp.End()
	return d
}

// PresentSetInto writes into dst (length N) which users exist on the
// target's viewport given the rendered set: rendered users always, plus —
// when the target is co-located (MR) — every other MR participant, whose
// physical body cannot be hidden (the hybrid-participation constraint of
// Sec. III-A). It returns dst.
func (g *StaticGraph) PresentSetInto(dst, rendered []bool, interfaces []Interface) []bool {
	if len(rendered) != g.N || len(interfaces) != g.N || len(dst) != g.N {
		panic("occlusion: PresentSetInto length mismatch")
	}
	targetMR := interfaces[g.Target] == MR
	for w := 0; w < g.N; w++ {
		if w == g.Target {
			dst[w] = false
			continue
		}
		dst[w] = rendered[w] || (targetMR && interfaces[w] == MR)
	}
	return dst
}

// VisibleSet computes the indicator 1[v ⇒ w] for every user: w is visible
// exactly when it is rendered, present, and no other present user's image
// overlaps its own. The relation is symmetric — per Definition 4 an
// occlusion edge means the two *images* overlap on the viewport, so neither
// endpoint is seen clearly. This symmetry is what makes maximizing per-step
// utility exactly MWIS on the occlusion graph (Theorem 1). Physical MR
// bodies count as force-rendered for co-located targets, so an avatar drawn
// over (or under) a physical participant is ineffective too.
func (g *StaticGraph) VisibleSet(rendered []bool, interfaces []Interface) []bool {
	return g.VisibleSetInto(make([]bool, g.N), make([]bool, g.N), rendered, interfaces)
}

// VisibleSetInto is VisibleSet writing the indicator into dst and using
// present (both length N) as scratch for the intermediate present set —
// metrics.Score calls it once per user per step, and the fresh []bool pair
// the allocating variant creates dominated the scoring profile. It returns
// dst.
func (g *StaticGraph) VisibleSetInto(dst, present, rendered []bool, interfaces []Interface) []bool {
	if len(dst) != g.N || len(present) != g.N {
		panic("occlusion: VisibleSet scratch length mismatch")
	}
	g.PresentSetInto(present, rendered, interfaces)
	for w := 0; w < g.N; w++ {
		dst[w] = false
		if w == g.Target || !rendered[w] || !present[w] {
			continue
		}
		dst[w] = true
		for _, u := range g.neighbors[w] {
			if present[u] {
				dst[w] = false
				break
			}
		}
	}
	return dst
}

// PhysicalMask returns MIA's hybrid-participation mask m_t: 0 for the target
// herself and for users whose image overlaps a co-located MR participant's
// physical body — rendering them can never be effective for an MR target
// (the forced physical image destroys the pair's clarity). For VR targets no
// one is physically present, so only the target is masked.
func (g *StaticGraph) PhysicalMask(interfaces []Interface) []float64 {
	if len(interfaces) != g.N {
		panic("occlusion: PhysicalMask length mismatch")
	}
	mask := make([]float64, g.N)
	targetMR := interfaces[g.Target] == MR
	for w := 0; w < g.N; w++ {
		if w == g.Target {
			continue
		}
		mask[w] = 1
		if !targetMR {
			continue
		}
		for _, u := range g.neighbors[w] {
			if int(u) != g.Target && interfaces[u] == MR {
				mask[w] = 0
				break
			}
		}
	}
	return mask
}
