// Package baselines implements the comparison methods of the paper's
// evaluation (Sec. V-A2): Random and Nearest (static heuristics), MvAGC
// (grouping) and GraFrank (personalized ranking) as static social-media
// recommenders, DCRNN and TGCN as recurrent GNN kernels trained with the
// POSHGNN loss, and a COMURNet stand-in that enforces hard occlusion-free
// recommendations via exact MWIS search (see DESIGN.md, substitutions).
//
// Every baseline exposes Name() and StartEpisode(room, target) returning a
// stepper whose Step(t, frame) yields the rendered set — the same structural
// contract POSHGNN sessions satisfy, so the sim harness treats them all
// uniformly.
package baselines

import (
	"math/rand"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/sim"
)

// DefaultRenderCount is the top-k rendered-set size used by the fixed-size
// baselines. Around a dozen simultaneously rendered users matches the
// rendered-set sizes the learned methods converge to.
const DefaultRenderCount = 10

// clampK bounds a configured k to [1, N-1].
func clampK(k, n int) int {
	if k <= 0 {
		k = DefaultRenderCount
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// Random renders K users chosen uniformly at random each step.
type Random struct {
	K    int
	Seed int64
}

// Name implements the recommender contract.
func (Random) Name() string { return "Random" }

type randomSession struct {
	k      int
	target int
	n      int
	rng    *rand.Rand
}

// StartEpisode begins a random episode for target in room.
func (b Random) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return &randomSession{
		k:      clampK(b.K, room.N),
		target: target,
		n:      room.N,
		rng:    rand.New(rand.NewSource(b.Seed ^ int64(target)<<17 ^ 0x5eed)),
	}
}

func (s *randomSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	rendered := make([]bool, s.n)
	picked := 0
	for _, i := range s.rng.Perm(s.n) {
		if i == s.target {
			continue
		}
		rendered[i] = true
		picked++
		if picked == s.k {
			break
		}
	}
	return rendered
}

// Nearest renders the K users closest to the target at each step — strong on
// occlusion (near users are rarely blocked) and, thanks to social sampling,
// surprisingly strong on utility, exactly as the paper observes.
type Nearest struct {
	K int
}

// Name implements the recommender contract.
func (Nearest) Name() string { return "Nearest" }

type nearestSession struct {
	k      int
	target int
	n      int
	heap   []int // Step's scratch: the k nearest so far, farthest on top
}

// StartEpisode begins a nearest-k episode.
func (b Nearest) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	k := clampK(b.K, room.N)
	return &nearestSession{k: k, target: target, n: room.N, heap: make([]int, 0, k)}
}

// Step renders the k users that come first in (distance, user index)
// order: of users at exactly the same distance, the lower index wins. A
// max-heap bounded at k keeps the first k seen so far, so a step costs
// O(N log k) instead of a sort of all N−1 candidates.
func (s *nearestSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	dist, h := frame.Dist, s.heap[:0]
	after := func(u, w int) bool { return dist[u] > dist[w] || dist[u] == dist[w] && u > w }
	for w := 0; w < s.n; w++ {
		switch {
		case w == s.target:
		case len(h) < s.k:
			h = append(h, w)
			for i := len(h) - 1; i > 0 && after(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case after(h[0], w):
			h[0] = w
			for i := 0; ; {
				c := 2*i + 1
				if c+1 < len(h) && after(h[c+1], h[c]) {
					c++
				}
				if c >= len(h) || !after(h[c], h[i]) {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
	}
	s.heap = h
	rendered := make([]bool, s.n)
	for _, w := range h {
		rendered[w] = true
	}
	return rendered
}

// RenderAll renders every surrounding user — the "Original" condition of the
// user study (no adaptive display at all).
type RenderAll struct{}

// Name implements the recommender contract.
func (RenderAll) Name() string { return "Original" }

type renderAllSession struct {
	target, n int
}

// StartEpisode begins a render-everything episode.
func (RenderAll) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return &renderAllSession{target: target, n: room.N}
}

func (s *renderAllSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	rendered := make([]bool, s.n)
	for w := range rendered {
		rendered[w] = w != s.target
	}
	return rendered
}
