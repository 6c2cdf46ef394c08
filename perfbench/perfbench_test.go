package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"after/internal/dataset"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		value float64
		q     float64
	}{
		{1000, 990, 0.99},   // p99 itself has exactly 10 beyond
		{2000, 1980, 0.99},  // 20 beyond
		{500, 490, 0.98},    // p99 would leave 5 beyond; lowered to p98
		{100, 90, 0.90},     // lowered to p90
		{11, 1, 1.0 / 11.0}, // only the minimum has 10 beyond
		{5, 1, 0.2},         // too few samples: the minimum
	}
	for _, c := range cases {
		v, q := tail(seq(c.n), 0.99)
		if v != c.value || math.Abs(q-c.q) > 1e-12 {
			t.Errorf("n=%d: tail = %v at q=%v, want %v at q=%v", c.n, v, q, c.value, c.q)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 11 + rng.Intn(5000)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.Float64()
		}
		sort.Float64s(xs)
		v, _ := tail(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: %d samples beyond the reported tail", n, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantile(xs, 0.5); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
}

func TestFailuresCountAgainstAttempts(t *testing.T) {
	recs := []reqRecord{
		{status: http.StatusOK, fresh: true},
		{status: http.StatusOK, fresh: true},
		{status: http.StatusOK},              // degraded: a hold-state set
		{status: http.StatusTooManyRequests}, // shed by the room queue
		{status: http.StatusServiceUnavailable},
	}
	var tl tally
	outcomes := map[string]int{}
	for _, rc := range recs {
		tl.add(rc.fresh)
		outcomes[outcome(rc)]++
	}
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("tally = %+v, want 5 attempted, 3 failed", tl)
	}
	if got := tl.okShare(); got != 0.4 {
		t.Errorf("fresh share = %v, want 0.4", got)
	}
	want := map[string]int{"fresh": 2, "degraded": 1, "429": 1, "503": 1}
	for k, v := range want {
		if outcomes[k] != v {
			t.Errorf("outcome %s = %d, want %d (all: %v)", k, outcomes[k], v, outcomes)
		}
	}
	var none tally
	if none.okShare() != 0 {
		t.Error("an empty tally must not report a success share")
	}
}

// resultLine runs out through the program's own printing path and returns
// the parsed result line, failing the test if either line does not parse.
func resultLine(t *testing.T, out *output) result {
	t.Helper()
	var buf bytes.Buffer
	if err := writeResult(&buf, io.Discard, out, false); err != nil {
		t.Fatalf("writing the result: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d output lines, want the detail record and the result", len(lines))
	}
	var detail map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &detail); err != nil {
		t.Fatalf("detail line: %v", err)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

func TestFailedRequestsReachTheResultLine(t *testing.T) {
	// One sub-window of 100 requests, failedN of them shed. With one
	// failure only the maximum latency is infinite; with all of them every
	// latency quantile is, and is written as null.
	for _, failedN := range []int{1, 100} {
		rig := &servingRig{}
		for i := 0; i < 100; i++ {
			rc := reqRecord{status: http.StatusOK, fresh: true, iv: interval{int64(i) * 1e6, int64(i)*1e6 + 3e6}}
			if i < failedN {
				rc.status, rc.fresh = http.StatusTooManyRequests, false
			}
			rig.reqs = append(rig.reqs, rc)
		}
		rig.frames = []frameRecord{{tick: interval{0, 5e6}}}
		run := &servingRun{rig: rig, marks: []mark{{at: 0}, {at: 1e9, cpu: 1e8}}, setups: []float64{0.4, 0.5}, rss: 90}
		e2e, tl, samples := run.endToEnd()
		out := &output{e2e: e2e, tally: tl, detail: map[string]any{"end_to_end": e2e, "samples": samples}}
		res := resultLine(t, out)
		if res.Attempted != 100 || res.Failed != int64(failedN) {
			t.Errorf("%d failed: result has %d attempted, %d failed", failedN, res.Attempted, res.Failed)
		}
		if fs, ok := res.Metrics["fresh_share"].Value.(float64); !ok || fs != float64(100-failedN)/100 {
			t.Errorf("%d failed: fresh_share = %v", failedN, res.Metrics["fresh_share"].Value)
		}
		if p50 := res.Metrics["rec_p50_ms"].Value; (failedN == 100) != (p50 == nil) {
			t.Errorf("%d failed: rec_p50_ms = %v", failedN, p50)
		}
	}
}

func TestFailedPaperOpsCountTheirSets(t *testing.T) {
	ops := []paperOp{
		{iv: interval{0, 1e9}, attempted: 1616, produced: 1616},
		{iv: interval{1e9, 1.1e9}, attempted: 1616, err: errors.New("evaluate: broken")},
		{iv: interval{1.1e9, 2.1e9}, attempted: 1616, produced: 1616},
	}
	run := &paperRun{steps: &stepLog{}, ops: ops, setups: []float64{0.3}, rss: 70, window: interval{0, 2.1e9}}
	e2e, tl, samples := run.endToEnd()
	res := resultLine(t, &output{e2e: e2e, tally: tl, detail: map[string]any{"end_to_end": e2e, "samples": samples}})
	if res.Attempted != 3*1616 || res.Failed != 1616 {
		t.Errorf("result has %d attempted, %d failed; want %d, 1616", res.Attempted, res.Failed, 3*1616)
	}
	if fs := res.Metrics["fresh_share"].Value; fs != 2.0/3 {
		t.Errorf("fresh_share = %v, want 2/3", fs)
	}
	if tick := res.Metrics["tick_p50_ms"].Value; tick != 1000.0 {
		t.Errorf("tick_p50_ms = %v, want the successful ops' 1000 ms", tick)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	kids := []interval{
		{10, 40},
		{30, 60},   // overlaps the first: [10, 60) counts once
		{90, 120},  // sticks out of the parent: only [90, 100) counts
		{-5, 5},    // starts before the parent: only [0, 5) counts
		{200, 300}, // outside the parent entirely
		{20, 25},   // nested inside another child
	}
	if got := covered(parent, kids); got != 65 {
		t.Errorf("covered = %d, want 65", got)
	}
	if got := selfTime(parent, kids); got != 35 {
		t.Errorf("self = %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
}

func TestMakespanClaimsInOrder(t *testing.T) {
	cases := []struct {
		jobs    []int64
		workers int
		want    int64
	}{
		{[]int64{3, 1, 1, 1}, 2, 3}, // the short jobs queue behind each other on one worker
		{[]int64{1, 1, 1}, 1, 3},
		{[]int64{2, 2, 2, 2}, 2, 4},
		{[]int64{5}, 4, 5},
		{nil, 2, 0},
	}
	for _, c := range cases {
		if got := makespan(c.jobs, c.workers); got != c.want {
			t.Errorf("makespan(%v, %d) = %d, want %d", c.jobs, c.workers, got, c.want)
		}
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	if len(b.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json declares workload %s, which the program does not run", w.Name)
		}
	}
}

// The smoke tests run each workload's loop briefly on small inputs, traced,
// and require every output check to pass.

func requireChecks(t *testing.T, out *output) {
	t.Helper()
	if len(out.checks) == 0 {
		t.Fatal("no checks ran")
	}
	for _, c := range out.checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	for _, m := range endToEndMetrics {
		if v := out.e2e[m.name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("end-to-end %s = %v, want a positive finite value", m.name, v)
		}
	}
	if out.e2e["fresh_share"] != 1 || out.tally.failed != 0 {
		t.Errorf("fresh share %v with %d of %d failed", out.e2e["fresh_share"], out.tally.failed, out.tally.attempted)
	}
}

func TestServingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	for _, sp := range []servingSpec{
		{name: "plaza-small", setupReps: 2, rooms: 2, users: 40, targets: 6, moveShare: 1, deadlineMs: 1000,
			warmFrames: 3, distinct: 8, replayPairs: 2, replayFrames: 12, propFrames: 2, traceEvery: 2},
		{name: "crowd-small", setupReps: 1, rooms: 1, users: 300, targets: 3, moveShare: 0.05, deadlineMs: 1000, rotateEvery: 4,
			warmFrames: 2, distinct: 8, replayPairs: 2, replayFrames: 8, propFrames: 2, traceEvery: 2},
	} {
		t.Run(sp.name, func(t *testing.T) {
			out, err := serveWorkload(sp, 3, 0.4, true)
			if err != nil {
				t.Fatal(err)
			}
			requireChecks(t, out)
			for _, name := range []string{"serve.queue_ms", "serve.batch_size", "core.step_ms", "occlusion.static_us", "exp.train_s", "dataset.room_s"} {
				if !(out.layers[name] > 0) {
					t.Errorf("per-layer %s = %v, want > 0", name, out.layers[name])
				}
			}
			if out.layers["serve.fused_share"] != 1 {
				t.Errorf("fused share %v, want 1", out.layers["serve.fused_share"])
			}
		})
	}
}

func TestPaperSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sp := paperSpec{
		setupReps:    2,
		room:         dataset.Config{Kind: dataset.Timik, RoomUsers: 30, PlatformUsers: 300, T: 12},
		trainTargets: 2, evalTargets: 3, staticEvery: 4,
	}
	out, err := paperWorkload(sp, 2, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	requireChecks(t, out)
	for _, name := range []string{"core.train_epoch_s", "core.step_ms", "sim.fused_ms", "sim.episode_ms", "metrics.score_us", "quality.record_ms", "occlusion.dog_ms"} {
		if !(out.layers[name] > 0) {
			t.Errorf("per-layer %s = %v, want > 0", name, out.layers[name])
		}
	}
}
