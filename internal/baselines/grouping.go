package baselines

import (
	"math"
	"math/rand"

	"after/internal/dataset"
	"after/internal/occlusion"
	"after/internal/sim"
	"after/internal/tensor"
)

// MvAGC is the grouping-based baseline [66]: graph-filter-based attributed
// clustering. Node features are smoothed with a low-pass graph filter
// X' = Ŝᵏ·X over the social network (Ŝ the symmetrically normalized
// adjacency with self-loops, the high-order neighborhood refinement of the
// original method), then k-means partitions users into groups; each user is
// always shown the members of her own group. The recommendation is static
// per episode — the method knows nothing about space or time, which is
// exactly the weakness the paper exposes.
type MvAGC struct {
	// Groups is the number of clusters k (0 = N/10, at least 2).
	Groups int
	// FilterOrder is the number of smoothing passes (0 = 3).
	FilterOrder int
	// Seed drives k-means initialization.
	Seed int64
}

// Name implements sim.Recommender.
func (MvAGC) Name() string { return "MvAGC" }

type groupSession struct {
	rendered []bool
}

func (s *groupSession) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := make([]bool, len(s.rendered))
	copy(out, s.rendered)
	return out
}

// StartEpisode clusters the room and renders the target's group members.
func (b MvAGC) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	groups := b.Groups
	if groups <= 0 {
		groups = room.N / 10
	}
	if groups < 2 {
		groups = 2
	}
	order := b.FilterOrder
	if order <= 0 {
		order = 3
	}
	feats := filteredFeatures(room, order)
	assign := kmeans(feats, groups, rand.New(rand.NewSource(b.Seed+int64(room.N))))
	rendered := make([]bool, room.N)
	for w := 0; w < room.N; w++ {
		rendered[w] = w != target && assign[w] == assign[target]
	}
	return &groupSession{rendered: rendered}
}

// filteredFeatures low-passes the room's node features over its social
// graph: X ← Ŝ·X repeated order times, Ŝ = D^{-1/2}(A+I)D^{-1/2}. SpMM sums
// each row in stored order, so each row of Ŝ stores its self loop first and
// then the sorted neighbors, which fixes the features' bits.
func filteredFeatures(room *dataset.Room, order int) [][]float64 {
	n := room.N
	interests := room.Interests != nil && len(room.Interests) == n && len(room.Interests[0]) > 0
	dim := 1 // fallback: one structural feature, the degree
	if interests {
		dim = len(room.Interests[0])
	}
	x := tensor.NewMatrix(n, dim)
	invSqrtDeg := make([]float64, n)
	for i := 0; i < n; i++ {
		if interests {
			copy(x.Data[i*dim:(i+1)*dim], room.Interests[i])
		} else {
			x.Data[i] = float64(room.Graph.Degree(i))
		}
		invSqrtDeg[i] = 1 / math.Sqrt(float64(room.Graph.Degree(i))+1)
	}
	rowPtr, col, val := make([]int32, n+1), []int32(nil), []float64(nil)
	for i := 0; i < n; i++ {
		col, val = append(col, int32(i)), append(val, invSqrtDeg[i]*invSqrtDeg[i])
		for _, j := range room.Graph.Neighbors(i) {
			col, val = append(col, int32(j)), append(val, invSqrtDeg[i]*invSqrtDeg[j])
		}
		rowPtr[i+1] = int32(len(col))
	}
	s := tensor.NewCSR(n, n, rowPtr, col, val, true)
	for pass := 0; pass < order; pass++ {
		x = tensor.SpMM(s, x)
	}
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = x.Data[i*dim : (i+1)*dim]
	}
	return feats
}

// kmeans clusters rows into k groups with Lloyd's algorithm and k-means++
// style seeding; returns per-row assignments.
func kmeans(x [][]float64, k int, rng *rand.Rand) []int {
	n := len(x)
	if k > n {
		k = n
	}
	dim := len(x[0])
	centers := make([][]float64, 0, k)
	// First center uniform, rest proportional to squared distance.
	centers = append(centers, append([]float64(nil), x[rng.Intn(n)]...))
	for len(centers) < k {
		dists := make([]float64, n)
		total := 0.0
		for i := range x {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(x[i], c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		pick := 0
		if total > 0 {
			r := rng.Float64() * total
			for i, d := range dists {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(n)
		}
		centers = append(centers, append([]float64(nil), x[pick]...))
	}
	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i := range x {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(x[i], centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i := range x {
			counts[assign[i]]++
			for d := 0; d < dim; d++ {
				sums[assign[i]][d] += x[i][d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centers[c] = append([]float64(nil), x[rng.Intn(n)]...)
				continue
			}
			for d := 0; d < dim; d++ {
				centers[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	return assign
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
