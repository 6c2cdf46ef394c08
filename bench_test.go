package after_test

// The benchmark suite regenerates every table and figure of the paper's
// evaluation section (Tables II-VIII, Fig. 4) plus micro-benchmarks for the
// per-step costs behind the "Running Time" rows.
//
//	go test -bench=. -benchmem
//
// Table benches default to a reduced scale (AFTER_BENCH_SCALE, default 0.3)
// with the full model-selection grid; set AFTER_BENCH_SCALE=1 for paper
// scale (slow: trains many models per table). Each bench logs the formatted
// artifact once so the run doubles as a results dump; cmd/aftersim prints
// the same artifacts interactively.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"after"
	"after/internal/baselines"
	"after/internal/core"
	"after/internal/exp"
	"after/internal/geom"
	"after/internal/mwis"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/tensor"
)

func benchOptions() exp.Options {
	scale := 0.3
	if s := os.Getenv("AFTER_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return exp.Options{Scale: scale, Quick: os.Getenv("AFTER_BENCH_QUICK") == "1"}
}

func benchTable(b *testing.B, f func(exp.Options) (*exp.Table, error)) {
	b.Helper()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := f(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t.Format())
			if r := t.Row("POSHGNN"); r != nil {
				b.ReportMetric(r.Utility, "POSHGNN-utility")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table II: the full method comparison on the
// Timik-like dataset.
func BenchmarkTable2(b *testing.B) { benchTable(b, exp.Table2) }

// BenchmarkTable3 regenerates Table III: the comparison on the SMM-like
// dataset.
func BenchmarkTable3(b *testing.B) { benchTable(b, exp.Table3) }

// BenchmarkTable4 regenerates Table IV: the comparison on the Hub-like
// dataset.
func BenchmarkTable4(b *testing.B) { benchTable(b, exp.Table4) }

// BenchmarkTable5 regenerates Table V: the POSHGNN ablation on Hub.
func BenchmarkTable5(b *testing.B) { benchTable(b, exp.Table5) }

// BenchmarkTable6 regenerates Table VI: sensitivity to the user number N.
func BenchmarkTable6(b *testing.B) { benchTable(b, exp.Table6) }

// BenchmarkTable7 regenerates Table VII: sensitivity to the VR share.
func BenchmarkTable7(b *testing.B) { benchTable(b, exp.Table7) }

// BenchmarkTable8 regenerates Table VIII: the utility/satisfaction
// correlation analysis from the simulated user study.
func BenchmarkTable8(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		s, err := exp.RunStudy(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", s.FormatTable8())
			b.ReportMetric(s.Study.PearsonUtility, "pearson-utility")
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: per-method utility and Likert feedback
// panels from the simulated user study.
func BenchmarkFig4(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		s, err := exp.RunStudy(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", s.FormatFig4())
			if o := s.Study.Outcome("POSHGNN"); o != nil {
				b.ReportMetric(o.Feedback, "POSHGNN-likert")
			}
		}
	}
}

// ---- Micro-benchmarks: the per-step costs behind the Running Time rows ----

var paperRoom = sync.OnceValues(func() (*after.Room, error) {
	return after.GenerateRoom(after.DatasetConfig{Kind: after.SMM, RoomUsers: 200, T: 10, Seed: 99})
})

// BenchmarkPOSHGNNStep measures one POSHGNN inference step at the paper's
// full room size (N=200): the ~milliseconds that make it real-time capable.
func BenchmarkPOSHGNNStep(b *testing.B) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	model := after.NewPOSHGNN(after.DefaultModelConfig())
	dog := after.BuildDOG(0, room.Traj, room.AvatarRadius)
	sess := model.StartEpisode(room, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step(i, dog.At(i%dog.T()))
	}
}

// BenchmarkSpMM measures the raw sparse kernel against the equivalent dense
// product on a 1000-node occlusion-like adjacency with d=8 features — the
// inner multiply every GraphConv rides.
func BenchmarkSpMM(b *testing.B) {
	const n, d = 1000, 8
	rng := rand.New(rand.NewSource(11))
	positions := make([]geom.Vec2, n)
	side := 2 * 31.6 // ~constant density at n=1000
	for i := range positions {
		positions[i] = geom.Vec2{X: rng.Float64() * side, Z: rng.Float64() * side}
	}
	g := occlusion.BuildStatic(0, positions, occlusion.DefaultAvatarRadius)
	csr := g.AdjacencyCSR()
	dense := csr.Dense()
	h := tensor.GlorotUniform(rng, n, d)
	b.Logf("n=%d edges=%d", n, g.EdgeCount())
	b.Run("sparse", func(b *testing.B) {
		out := tensor.NewMatrix(n, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.SpMMInto(out, csr, h)
		}
	})
	b.Run("dense", func(b *testing.B) {
		out := tensor.NewMatrix(n, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(out, dense, h)
		}
	})
}

// BenchmarkSpMMWide measures the multi-column SpMM the batched forward pass
// rides: 16 per-target occlusion CSRs aggregated in one call over a wide
// feature matrix (one 4-column block per target), float64 versus the float32
// fast path, at the converter stress size N=500.
func BenchmarkSpMMWide(b *testing.B) {
	const n, k, d = 500, 16, 4
	rng := rand.New(rand.NewSource(7))
	positions := make([]geom.Vec2, n)
	side := 2 * 22.4 // ~constant density at n=500
	for i := range positions {
		positions[i] = geom.Vec2{X: rng.Float64() * side, Z: rng.Float64() * side}
	}
	graphs := make([]*tensor.CSR, k)
	edges := 0
	for i := range graphs {
		g := occlusion.BuildStatic(i*n/k, positions, occlusion.DefaultAvatarRadius)
		graphs[i] = g.AdjacencyCSR()
		edges += g.EdgeCount()
	}
	x := tensor.GlorotUniform(rng, n, k*d)
	b.Logf("n=%d targets=%d block=%d mean-edges=%d", n, k, d, edges/k)
	b.Run("f64", func(b *testing.B) {
		out, x := (*tensor.Dense[float64])(tensor.NewMatrix(n, k*d)), (*tensor.Dense[float64])(x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.F64.SpMMBatchInto(out, graphs, x)
		}
	})
	b.Run("f32", func(b *testing.B) {
		x32 := tensor.ToMatrix32(x)
		out := tensor.NewMatrix32(n, k*d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.F32.SpMMBatchInto(out, graphs, x32)
		}
	})
}

// BenchmarkBatchedStep measures one fused StepTargets frame — a full serve
// coalesce of 16 targets sharing one per-room forward pass — at the paper's
// room size, on the float64 oracle path and the float32 fast path. Allocs are
// reported because the pooled scratch (tensor.Pool) is what keeps the
// steady state flat; the hard bound lives in core's TestBatchStepAllocs.
func BenchmarkBatchedStep(b *testing.B) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	const k = 16
	targets := make([]int, k)
	frames := make([]*occlusion.StaticGraph, k)
	dogs := make([]*occlusion.DOG, k)
	for i := range targets {
		targets[i] = i * room.N / k
		dogs[i] = occlusion.BuildDOG(targets[i], room.Traj, room.AvatarRadius)
	}
	model := after.NewPOSHGNN(after.DefaultModelConfig())
	for _, f32 := range []bool{false, true} {
		name := "f64"
		if f32 {
			name = "f32"
		}
		b.Run(name, func(b *testing.B) {
			sess := model.StartBatchSession(room, core.BatchOptions{Float32: f32})
			steps := len(dogs[0].Frames)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % steps
				for j := range dogs {
					frames[j] = dogs[j].Frames[t]
				}
				sess.StepTargets(t, targets, frames)
			}
		})
	}
}

// BenchmarkCOMURNetStep measures one constrained-search step at N=200: the
// orders-of-magnitude gap to POSHGNNStep is the paper's practicality
// argument.
func BenchmarkCOMURNetStep(b *testing.B) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	dog := after.BuildDOG(0, room.Traj, room.AvatarRadius)
	sess := after.NewCOMURNet(0, -1, 1).StartEpisode(room, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step(i, dog.At(i%dog.T()))
	}
}

// BenchmarkNearestEpisode measures one Nearest episode, 101 steps of
// picking the 10 users nearest one target on the paper-scale Timik room
// (N=200, T=100), as paper's evaluation steps it.
func BenchmarkNearestEpisode(b *testing.B) {
	room, err := paperTrainRoom()
	if err != nil {
		b.Fatal(err)
	}
	dog := after.BuildDOG(0, room.Traj, room.AvatarRadius)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess := after.NewNearestBaseline(0).StartEpisode(room, 0)
		for t := 0; t <= dog.T(); t++ {
			sess.Step(t, dog.At(t))
		}
	}
}

// BenchmarkBuildStatic measures the endpoint-sort sweep converter on one
// crowded 500-user frame (Table VI's N=500 row). Its all-pairs
// specification is timed on the same frame by occlusion's
// BenchmarkBuildStaticBrute.
func BenchmarkBuildStatic(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	positions := make([]geom.Vec2, 500)
	for i := range positions {
		positions[i] = geom.Vec2{X: rng.Float64()*16 - 8, Z: rng.Float64()*16 - 8}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		occlusion.BuildStatic(0, positions, occlusion.DefaultAvatarRadius)
	}
}

// BenchmarkBuildDOG measures the full trajectory→DOG conversion at paper
// room size with the worker pool at one worker versus the default limit.
func BenchmarkBuildDOG(b *testing.B) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			parallel.WithLimit(workers, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					after.BuildDOG(0, room.Traj, room.AvatarRadius)
				}
			})
		})
	}
}

// BenchmarkEvaluateParallel measures the full evaluation fan-out (all
// non-trained recommenders × 4 targets) sequentially versus on the pool.
func BenchmarkEvaluateParallel(b *testing.B) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	recs := []after.Recommender{
		after.NewRandomBaseline(0, 5),
		after.NewNearestBaseline(0),
	}
	targets := after.DefaultTargets(room, 4)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			parallel.WithLimit(workers, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := after.Evaluate(recs, room, targets, 0.5); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkOcclusionGraph measures the circular-arc converter at N=200.
// occlusion's TestBuildStaticAllocs pins its allocations on the same room.
func BenchmarkOcclusionGraph(b *testing.B) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occlusion.BuildStatic(0, room.Traj.Pos[i%len(room.Traj.Pos)], room.AvatarRadius)
	}
}

// paperFrame is target 0's oracle instance on the paper room's first frame:
// the frame, and its preferences as weights.
func paperFrame(b *testing.B) (*occlusion.StaticGraph, []float64) {
	room, err := paperRoom()
	if err != nil {
		b.Fatal(err)
	}
	g := occlusion.BuildStatic(0, room.Traj.Pos[0], room.AvatarRadius)
	weights := make([]float64, room.N)
	for w := 0; w < room.N; w++ {
		weights[w] = room.Pref(0, w)
	}
	return g, weights
}

// paperMWIS is paperFrame's instance as a problem on the frame's CSR.
func paperMWIS(b *testing.B) *mwis.Problem {
	g, weights := paperFrame(b)
	adj := g.AdjacencyCSR()
	return mwis.NewProblem(weights, adj.RowPtr, adj.Col)
}

// BenchmarkMWISExact measures the exact branch-and-bound solver on a
// 200-node occlusion graph (COMURNet's inner loop).
func BenchmarkMWISExact(b *testing.B) {
	prob := paperMWIS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mwis.BranchAndBound(prob, 60_000)
	}
}

// BenchmarkMWISGreedy measures the greedy + local-search heuristic that
// seeds branch and bound's incumbent, on the same instance.
func BenchmarkMWISGreedy(b *testing.B) {
	prob := paperMWIS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mwis.LocalSearch(prob, mwis.Greedy(prob))
	}
}

// BenchmarkMWISCircular measures the exact circular-arc solver, the quality
// layer's per-step oracle, on the same instance.
func BenchmarkMWISCircular(b *testing.B) {
	g, weights := paperFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mwis.SolveCircularArc(g.Arcs, weights)
	}
}

// BenchmarkTrainingEpoch measures one POSHGNN training epoch on a mid-size
// room (cost of the offline phase).
func BenchmarkTrainingEpoch(b *testing.B) {
	room, err := after.GenerateRoom(after.DatasetConfig{Kind: after.SMM, RoomUsers: 60, T: 30, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := after.DefaultModelConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		m := after.NewPOSHGNN(cfg)
		if _, err := m.Train([]after.Episode{{Room: room, Target: 0}}); err != nil {
			b.Fatal(err)
		}
	}
}

// paperTrainRoom is the input of BenchmarkPaperTrainingEpoch: a Timik room
// at the paper's scale (N=200, T=100).
var paperTrainRoom = sync.OnceValues(func() (*after.Room, error) {
	return after.GenerateRoom(after.DatasetConfig{Kind: after.Timik, RoomUsers: 200, T: 100, Seed: 7})
})

// BenchmarkPaperTrainingEpoch measures one training epoch over 3 episodes
// of a paper-scale Timik room for POSHGNN and for the two trained recurrent
// baselines, the unit of Table II's offline cost (each grid candidate
// trains several). The recurrent kernels validate with a constant score, so
// their epoch includes early stopping's snapshot and restore but no
// evaluation.
func BenchmarkPaperTrainingEpoch(b *testing.B) {
	room, err := paperTrainRoom()
	if err != nil {
		b.Fatal(err)
	}
	var eps []after.Episode
	for _, t := range after.DefaultTargets(room, 3) {
		eps = append(eps, after.Episode{Room: room, Target: t})
	}
	b.Run("POSHGNN", func(b *testing.B) {
		b.ReportAllocs()
		cfg := after.DefaultModelConfig()
		cfg.Epochs = 1
		for i := 0; i < b.N; i++ {
			if _, err := after.NewPOSHGNN(cfg).Train(eps); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []struct {
		name  string
		build func(baselines.RecurrentConfig) *baselines.Recurrent
	}{{"TGCN", baselines.NewTGCN}, {"DCRNN", baselines.NewDCRNN}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := k.build(baselines.RecurrentConfig{Epochs: 1})
				if _, err := m.Train(eps, func() (float64, error) { return 0, nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatasetGenerate measures synthetic room generation at paper
// scale.
func BenchmarkDatasetGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := after.GenerateRoom(after.DatasetConfig{
			Kind: after.SMM, RoomUsers: 200, T: 100, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style compile check that the README snippet stays valid.
func ExampleGenerateRoom() {
	room, err := after.GenerateRoom(after.DatasetConfig{
		Kind: after.Hubs, RoomUsers: 12, T: 5, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(room.Name, room.N)
	// Output: Hub 12
}

// ---- Ablation benches for the design choices DESIGN.md calls out ----

// BenchmarkAblationDecoder contrasts POSHGNN with and without the greedy
// de-occlusion decode of r_t (DESIGN.md calibration decision 2).
func BenchmarkAblationDecoder(b *testing.B) {
	room, err := after.GenerateRoom(after.DatasetConfig{
		Kind: after.SMM, RoomUsers: 50, T: 30, Seed: 17, PlatformUsers: 800,
	})
	if err != nil {
		b.Fatal(err)
	}
	train := func(raw bool) *after.POSHGNN {
		cfg := after.DefaultModelConfig()
		cfg.Epochs = 4
		cfg.RawDecode = raw
		m := after.NewPOSHGNN(cfg)
		if _, err := m.Train([]after.Episode{{Room: room, Target: 0}, {Room: room, Target: 9}}); err != nil {
			b.Fatal(err)
		}
		return m
	}
	for i := 0; i < b.N; i++ {
		decoded := train(false)
		raw := train(true)
		res, err := after.Evaluate([]after.Recommender{
			after.AsRecommender(decoded, "decoded"),
			after.AsRecommender(raw, "raw"),
		}, room, after.DefaultTargets(room, 3), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("decoded: utility=%.1f occ=%.1f%% | raw: utility=%.1f occ=%.1f%%",
				res["decoded"].Utility, 100*res["decoded"].OcclusionRate,
				res["raw"].Utility, 100*res["raw"].OcclusionRate)
			b.ReportMetric(res["decoded"].Utility-res["raw"].Utility, "decode-gain")
		}
	}
}

// BenchmarkAblationAlpha sweeps the occlusion-penalty weight α (the paper's
// trade-off hyperparameter, Sec. V-A5).
func BenchmarkAblationAlpha(b *testing.B) {
	room, err := after.GenerateRoom(after.DatasetConfig{
		Kind: after.SMM, RoomUsers: 50, T: 30, Seed: 18, PlatformUsers: 800,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.01, 0.05, 0.2} {
			cfg := after.DefaultModelConfig()
			cfg.Alpha = alpha
			cfg.Epochs = 4
			m := after.NewPOSHGNN(cfg)
			if _, err := m.Train([]after.Episode{{Room: room, Target: 0}}); err != nil {
				b.Fatal(err)
			}
			res, err := after.Evaluate([]after.Recommender{after.AsRecommender(m, "m")},
				room, after.DefaultTargets(room, 3), 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("alpha=%.2f utility=%.1f rendered/step=%.1f",
					alpha, res["m"].Utility, res["m"].RenderedMean)
			}
		}
	}
}

// BenchmarkCOMURNetPracticality contrasts the idealized infinitely-fast
// solver with lagged real-time deployment (DESIGN.md calibration
// decision 4): staleness is what turns a 0% occlusion guarantee into
// realized occlusion and lost utility.
func BenchmarkCOMURNetPracticality(b *testing.B) {
	room, err := after.GenerateRoom(after.DatasetConfig{
		Kind: after.SMM, RoomUsers: 50, T: 30, Seed: 19, PlatformUsers: 800,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := after.Evaluate([]after.Recommender{
			after.NewCOMURNet(0, -1, 1), // idealized
		}, room, after.DefaultTargets(room, 3), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		lag, err := after.Evaluate([]after.Recommender{
			after.NewCOMURNet(0, 3, 1),
		}, room, after.DefaultTargets(room, 3), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("ideal: utility=%.1f occ=%.1f%% | lag3: utility=%.1f occ=%.1f%%",
				res["COMURNet"].Utility, 100*res["COMURNet"].OcclusionRate,
				lag["COMURNet"].Utility, 100*lag["COMURNet"].OcclusionRate)
		}
	}
}

// BenchmarkOptimalityGap measures how close trained POSHGNN's per-step
// preference utility comes to the exact per-step optimum, computed with the
// polynomial circular-arc MWIS oracle (occlusion graphs are circular-arc
// graphs, so the NP-hard general case collapses for single frames). The
// reported metric is mean(POSHGNN/optimal) over an episode for a VR target.
func BenchmarkOptimalityGap(b *testing.B) {
	room, err := after.GenerateRoom(after.DatasetConfig{
		Kind: after.SMM, RoomUsers: 50, T: 30, Seed: 23, PlatformUsers: 800,
	})
	if err != nil {
		b.Fatal(err)
	}
	target := -1
	for i := 0; i < room.N; i++ {
		if room.Interfaces[i] == after.VR {
			target = i
			break
		}
	}
	if target < 0 {
		b.Skip("no VR target in room")
	}
	cfg := after.DefaultModelConfig()
	cfg.Epochs = 5
	cfg.MaxRender = -1 // uncapped: gap vs the unconstrained optimum
	model := after.NewPOSHGNN(cfg)
	if _, err := model.Train([]after.Episode{{Room: room, Target: target}}); err != nil {
		b.Fatal(err)
	}
	dog := after.BuildDOG(target, room.Traj, room.AvatarRadius)
	weights := make([]float64, room.N)
	for w := 0; w < room.N; w++ {
		if w != target {
			weights[w] = room.Pref(target, w)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := model.StartEpisode(room, target)
		ratioSum, steps := 0.0, 0
		for t, frame := range dog.Frames {
			rendered := sess.Step(t, frame)
			got := 0.0
			for w, on := range rendered {
				if on {
					// The decoded set is conflict-free, so every rendered
					// user is visible for a VR target.
					got += weights[w]
				}
			}
			_, opt := mwis.SolveCircularArc(frame.Arcs, weights)
			if opt > 0 {
				ratioSum += got / opt
				steps++
			}
		}
		if i == 0 && steps > 0 {
			b.ReportMetric(ratioSum/float64(steps), "mean-optimality-ratio")
		}
	}
}
