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
// (kept in the tests as the specification the sweep must match exactly),
// and writes them straight into the graph's one adjacency form: a CSR
// pattern whose rows are the neighbor lists. Its working memory comes from a
// pool, so a conversion allocates only what the graph keeps. The converter
// runs once per target per frame when serving, and at the paper's Table VI
// scale (N=500, T=100, several targets) for every DOG frame.
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

	// adj is A_t as a symmetric implicit-ones CSR pattern: row w is w's
	// neighbor list in ascending order. The converter writes it once; it is
	// shared read-only by every caller from then on.
	adj tensor.CSR
}

// newStaticGraph validates inputs and fills arcs and distances; the edge
// structure is left to the caller.
func newStaticGraph(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	n := len(positions)
	if target < 0 || target >= n {
		panic(fmt.Sprintf("occlusion: target %d out of range [0,%d)", target, n))
	}
	if radius <= 0 {
		panic("occlusion: non-positive avatar radius")
	}
	g := &StaticGraph{
		N:      n,
		Target: target,
		Arcs:   make([]geom.Arc, n),
		Dist:   make([]float64, n),
	}
	eye := positions[target]
	for w := 0; w < n; w++ {
		if w != target {
			g.Arcs[w], g.Dist[w] = geom.ArcOf(eye, positions[w], radius)
		}
	}
	return g
}

// BuildStatic converts a snapshot of user positions into the target user's
// static occlusion graph. radius is the avatar disk radius. Edges are found
// with the endpoint-sort sweep; the result is the identical edge set the
// all-pairs arc test produces (a property the tests and FuzzBuildStatic
// enforce, wrap-around arcs included).
func BuildStatic(target int, positions []geom.Vec2, radius float64) *StaticGraph {
	g := newStaticGraph(target, positions, radius)
	s := sweeps.Get().(*sweep)
	s.findEdges(g)
	s.writeCSR(g)
	sweeps.Put(s)
	return g
}

// sweep is the converter's working memory, pooled so that a conversion
// allocates only the graph, its arcs and distances, and the CSR.
type sweep struct {
	full  []int32  // users whose arc covers the whole circle
	keys  []uint64 // start<<32 | user per proper arc: sorted, then doubled
	width []uint32 // per user: the width of its candidate interval
	pairs []int32  // confirmed edges, two endpoints each
	next  []int32  // per user: the next free slot of its row
	raw   []int32  // per user: neighbors in discovery order, rows as in the CSR
}

var sweeps = sync.Pool{New: func() any { return new(sweep) }}

// unitsPerRad is the sweep's fixed-point angle scale: 2³² units per turn,
// so forward distances on the circle are plain wrapping uint32 subtraction.
const unitsPerRad = (1 << 32) / (2 * math.Pi)

// findEdges collects the occlusion edges of g into s.pairs in
// O(N log N + E). Each proper arc becomes a candidate interval
// [start, start+width] in fixed point: the start rounded down, the width
// rounded up plus 2 units, so neither the float rounding of the start nor
// the 1e-12 tolerance inside geom.Arc.Overlaps can hide a true edge. Starts
// are sorted once, and each arc scans forward only the starts inside its
// own interval: two circular arcs intersect exactly when one's start lies
// inside the other, so every edge is a candidate at least once. A candidate
// start 2 units inside both ends of the interval is an edge whatever the
// rounding; Overlaps itself settles the few in the slack band, so the edge
// set is exactly the all-pairs one.
//
// Full arcs (users within the avatar radius of the eye, co-located ones
// included) overlap everyone and are linked directly.
func (s *sweep) findEdges(g *StaticGraph) {
	full, keys, pairs := s.full[:0], s.keys[:0], s.pairs[:0]
	width := grow(s.width, g.N)
	for w, a := range g.Arcs {
		switch {
		case w == g.Target:
		case a.Full():
			full = append(full, int32(w))
		default:
			// ArcOf's half-widths are at most π/2, so the width fits.
			start := uint32(uint64(geom.NormalizeAngle(a.Center-a.HalfWidth) * unitsPerRad))
			width[w] = uint32(math.Ceil(2*a.HalfWidth*unitsPerRad)) + 2
			keys = append(keys, uint64(start)<<32|uint64(w))
		}
	}
	for k, f := range full {
		for _, h := range full[k+1:] {
			pairs = append(pairs, f, h)
		}
		for _, key := range keys {
			pairs = append(pairs, f, int32(uint32(key)))
		}
	}

	// Ties in start stay ordered by user, which the dedup rule below needs:
	// a user whose start equals i's but whose index is lower sorts before
	// i, so i's scan meets it only at the end of the cycle.
	slices.Sort(keys)
	m := len(keys)
	// Doubling the sorted keys turns the cyclic scan into a linear one.
	keys = append(keys, keys...)
	arcs := g.Arcs
	for p, ki := range keys[:m] {
		si, i := uint32(ki>>32), int32(uint32(ki))
		wi, arcI := width[i], arcs[i]
		// Forward distances from si grow along the scan, so it stops at the
		// first start outside i's interval.
		for _, kj := range keys[p+1 : p+m] {
			sj := uint32(kj >> 32)
			d := sj - si
			if d > wi {
				break
			}
			j := int32(uint32(kj))
			// A pair both scans reach is emitted by the lower index only:
			// si inside j's interval means j's scan reaches i. That is
			// rare (tied starts, or two near-half-circle arcs), so it is
			// tested first.
			if si-sj <= width[j] && j < i {
				continue
			}
			// A start 2 units inside both ends of i's interval lies inside
			// i's arc whatever the rounding, so Overlaps would accept it;
			// only the slack band needs the exact predicate.
			if (d >= 2 && d+5 <= wi) || arcI.Overlaps(arcs[j]) {
				pairs = append(pairs, i, j)
			}
		}
	}
	s.full, s.keys, s.width, s.pairs = full, keys, width, pairs
}

// writeCSR turns s.pairs into g's adjacency, each row in ascending order:
// rowPtr from the degrees, then the neighbors scattered into raw rows in
// discovery order, then transposed into the CSR columns. Visiting sources u
// in ascending order appends each u to its neighbors' rows already sorted,
// and the graph is symmetric, so row w ends up exactly N(w) ascending.
func (s *sweep) writeCSR(g *StaticGraph) {
	n, pairs := g.N, s.pairs
	rowPtr := make([]int32, n+1)
	for _, w := range pairs {
		rowPtr[w+1]++
	}
	for w := 0; w < n; w++ {
		rowPtr[w+1] += rowPtr[w]
	}
	next := append(s.next[:0], rowPtr[:n]...)
	raw := grow(s.raw, len(pairs))
	for k := 0; k+1 < len(pairs); k += 2 {
		a, b := pairs[k], pairs[k+1]
		raw[next[a]] = b
		next[a]++
		raw[next[b]] = a
		next[b]++
	}
	col := make([]int32, len(pairs))
	copy(next, rowPtr[:n])
	for u := int32(0); int(u) < n; u++ {
		for _, w := range raw[rowPtr[u]:rowPtr[u+1]] {
			col[next[w]] = u
			next[w]++
		}
	}
	s.next, s.raw = next, raw
	g.adj = tensor.CSR{Rows: n, Cols: n, RowPtr: rowPtr, Col: col, Symmetric: true}
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Occludes reports whether users i and j overlap in the target's view (the
// occlusion-graph edge relation). The target never participates in edges.
func (g *StaticGraph) Occludes(i, j int) bool {
	if i == g.Target || j == g.Target || i == j {
		return false
	}
	return g.Arcs[i].Overlaps(g.Arcs[j])
}

// Neighbors returns the occlusion neighbors of w in ascending order: row w
// of the adjacency CSR. The slice is owned by the graph; callers must not
// mutate it.
func (g *StaticGraph) Neighbors(w int) []int32 {
	lo, hi := g.adj.RowPtr[w], g.adj.RowPtr[w+1]
	return g.adj.Col[lo:hi:hi]
}

// EdgeCount returns the number of occlusion edges.
func (g *StaticGraph) EdgeCount() int { return len(g.adj.Col) / 2 }

// AdjacencyCSR returns A_t as a symmetric implicit-ones CSR pattern, the
// one adjacency form: message passing is per-edge work, so the sparse
// kernels never pay the O(N²) a densified adjacency costs. The converter
// built it; every call returns the same CSR, shared by every caller
// (several recommenders step the same frame), so it must be treated as
// read-only; all kernels do.
func (g *StaticGraph) AdjacencyCSR() *tensor.CSR { return &g.adj }

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
		for _, u := range g.Neighbors(w) {
			if present[u] {
				dst[w] = false
				break
			}
		}
	}
	return dst
}

// PhysicalMask returns MIA's hybrid-participation mask m_t: 0 for the target
// herself and for every user PhysicallyOccluded reports, 1 for the rest.
func (g *StaticGraph) PhysicalMask(interfaces []Interface) []float64 {
	if len(interfaces) != g.N {
		panic("occlusion: PhysicalMask length mismatch")
	}
	mask := make([]float64, g.N)
	for w := 0; w < g.N; w++ {
		if w != g.Target && !g.PhysicallyOccluded(w, interfaces) {
			mask[w] = 1
		}
	}
	return mask
}

// PhysicallyOccluded is MIA's hybrid-participation rule for one user w: for
// an MR target, w's image overlaps the physical body of a co-located MR
// participant other than the target, so rendering w can never be effective
// (the forced physical image destroys the pair's clarity). For a VR target
// no one is physically present, so it is always false.
func (g *StaticGraph) PhysicallyOccluded(w int, interfaces []Interface) bool {
	if interfaces[g.Target] != MR {
		return false
	}
	for _, u := range g.Neighbors(w) {
		if int(u) != g.Target && interfaces[u] == MR {
			return true
		}
	}
	return false
}
