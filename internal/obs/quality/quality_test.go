package quality

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/occlusion"
)

// qualityOn enables both gates for the duration of a test and restores the
// previous state afterwards.
func qualityOn(t *testing.T) {
	t.Helper()
	prevObs := obs.SetEnabled(true)
	prevQ := SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(prevObs)
		SetEnabled(prevQ)
	})
}

func testRoom(t testing.TB, seed int64, users, steps int) *dataset.Room {
	t.Helper()
	r, err := dataset.Generate(dataset.Config{
		Kind: dataset.SMM, PlatformUsers: 200, RoomUsers: users, T: steps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomTrace(rng *rand.Rand, n, steps, target int, p float64) [][]bool {
	out := make([][]bool, steps)
	for t := range out {
		r := make([]bool, n)
		for w := 0; w < n; w++ {
			if w != target && rng.Float64() < p {
				r[w] = true
			}
		}
		out[t] = r
	}
	return out
}

// nearestTrace renders the k users nearest the target each step, the set
// baselines.Nearest renders (up to the order of ties).
func nearestTrace(dog *occlusion.DOG, k int) [][]bool {
	out := make([][]bool, len(dog.Frames))
	for t, frame := range dog.Frames {
		order := make([]int, 0, frame.N-1)
		for w := 0; w < frame.N; w++ {
			if w != dog.Target {
				order = append(order, w)
			}
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(frame.Dist[a], frame.Dist[b]) })
		out[t] = make([]bool, frame.N)
		for _, w := range order[:min(k, len(order))] {
			out[t][w] = true
		}
	}
	return out
}

// TestOracleUpperBound is the regret monitor's soundness property: the
// per-step oracle value is a true upper bound on any trace's realized step
// utility (Theorem 1's reduction run in reverse), so regret is non-negative
// up to float dust. It runs on small SMM rooms with random traces, and on
// the paper's N=200 Timik room for one MR and one VR target, each with a
// nearest-10 and a random trace.
func TestOracleUpperBound(t *testing.T) {
	check := func(name string, room *dataset.Room, dog *occlusion.DOG, rendered [][]bool) {
		t.Helper()
		att, err := metrics.Attribute(room, dog, rendered, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		actual := make([]float64, len(att.Steps))
		for i, s := range att.Steps {
			actual[i] = s.Total
		}
		regret, oracle := regretSeries(room, dog, rendered, actual, 0.5)
		if len(oracle) != len(dog.Frames) {
			t.Fatalf("%s: %d oracle values for %d frames", name, len(oracle), len(dog.Frames))
		}
		for i := range oracle {
			if oracle[i]+1e-9 < actual[i] {
				t.Fatalf("%s step=%d: oracle %v below actual %v", name, i, oracle[i], actual[i])
			}
			if regret[i] < 0 {
				t.Fatalf("%s step=%d: negative clamped regret %v", name, i, regret[i])
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		room := testRoom(t, seed, 14, 20)
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 3; trial++ {
			target := rng.Intn(room.N)
			dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
			check(fmt.Sprintf("seed=%d trial=%d", seed, trial), room, dog,
				randomTrace(rng, room.N, len(dog.Frames), target, 0.5))
		}
	}
	room, err := dataset.Generate(dataset.Config{Kind: dataset.Timik, Seed: 901})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(901))
	for _, iface := range []occlusion.Interface{occlusion.MR, occlusion.VR} {
		target := slices.Index(room.Interfaces, iface)
		dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
		check("N=200 "+iface.String()+" nearest", room, dog, nearestTrace(dog, 10))
		check("N=200 "+iface.String()+" random", room, dog,
			randomTrace(rng, room.N, len(dog.Frames), target, 0.05))
	}
}

// TestOracleEmptyTraceFullRegret: rendering nobody realizes zero utility, so
// regret equals the oracle value wherever the oracle found positive weight.
func TestOracleEmptyTraceFullRegret(t *testing.T) {
	room := testRoom(t, 5, 12, 15)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rendered := make([][]bool, len(dog.Frames))
	for i := range rendered {
		rendered[i] = make([]bool, room.N)
	}
	actual := make([]float64, len(dog.Frames))
	regret, oracle := regretSeries(room, dog, rendered, actual, 0.5)
	if len(regret) != len(dog.Frames) {
		t.Fatalf("regret covers %d of %d steps", len(regret), len(dog.Frames))
	}
	positive := false
	for i := range regret {
		if regret[i] != oracle[i] {
			t.Fatalf("step %d: regret %v != oracle %v with zero actual", i, regret[i], oracle[i])
		}
		if oracle[i] > 0 {
			positive = true
		}
	}
	if !positive {
		t.Fatal("oracle never found positive utility; scene degenerate")
	}
}

// TestStepOracleAllocs pins the oracle's allocations on one frame of the
// paper's N=200 Timik room for a remote (VR) target, whose unmasked
// weights make it the costly frame kind.
func TestStepOracleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so the count holds only without it")
	}
	room, err := dataset.Generate(dataset.Config{Kind: dataset.Timik, T: 1, Seed: 901})
	if err != nil {
		t.Fatal(err)
	}
	target := slices.Index(room.Interfaces, occlusion.VR)
	frame := occlusion.BuildStatic(target, room.Traj.Pos[0], room.AvatarRadius)
	prev := make([]bool, room.N)
	for w := range prev {
		prev[w] = w%3 == 0
	}
	allocs := testing.AllocsPerRun(20, func() { stepOracleValue(room, frame, prev, 0.5) })
	if allocs > 12 {
		t.Errorf("stepOracleValue allocates %v times per call, budget 12", allocs)
	}
}

// TestCollectorRecordEpisode drives the full pipeline once and checks the
// snapshot schema invariants.
func TestCollectorRecordEpisode(t *testing.T) {
	qualityOn(t)
	c := NewCollector(Config{})
	room := testRoom(t, 3, 14, 20)
	dog := occlusion.BuildDOG(1, room.Traj, room.AvatarRadius)
	rng := rand.New(rand.NewSource(8))
	rendered := randomTrace(rng, room.N, len(dog.Frames), 1, 0.5)

	c.RecordEpisode("TESTREC", room, dog, rendered, 0.5)
	c.RecordEpisode("cand", room, dog, rendered, 0.5) // must be ignored

	snap := c.Snapshot()
	if _, ok := snap.Recommenders["cand"]; ok {
		t.Fatal("ignored recommender 'cand' appears in the snapshot")
	}
	rr, ok := snap.Recommenders["TESTREC"]
	if !ok {
		t.Fatal("recommender missing from snapshot")
	}
	if rr.Episodes != 1 || rr.Steps != len(dog.Frames) {
		t.Fatalf("episodes=%d steps=%d, want 1/%d", rr.Episodes, rr.Steps, len(dog.Frames))
	}
	// Attribution total must equal the scorer's utility bit for bit.
	res, err := metrics.Score(room, dog, rendered, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Attribution.Total != res.Utility {
		t.Fatalf("attribution total %v != scored utility %v", rr.Attribution.Total, res.Utility)
	}
	if rr.Regret.Steps != len(dog.Frames) {
		t.Fatalf("regret covers %d of %d frames", rr.Regret.Steps, len(dog.Frames))
	}
	if rr.Regret.Total < 0 || rr.Regret.Rate < 0 || rr.Regret.Rate > 1 {
		t.Fatalf("regret total=%v rate=%v out of range", rr.Regret.Total, rr.Regret.Rate)
	}
	if rr.Regret.OracleTotal+1e-9 < rr.Regret.ActualTotal {
		t.Fatalf("oracle total %v below actual %v", rr.Regret.OracleTotal, rr.Regret.ActualTotal)
	}
	if rr.Churn.Steps != len(dog.Frames)-1 {
		t.Fatalf("churn steps %d, want %d", rr.Churn.Steps, len(dog.Frames)-1)
	}
	if len(rr.Detectors) != 3 {
		t.Fatalf("%d detector states, want 3", len(rr.Detectors))
	}

	// Obs side effects: episode counter and the per-rec histograms exist.
	obsSnap := obs.Default().Snapshot()
	if h, ok := obsSnap.Histograms[`quality.step_utility{rec="TESTREC"}`]; !ok || h.Count != int64(len(dog.Frames)) {
		t.Fatalf("step-utility histogram missing or short: %+v", h)
	}
}

// TestCollectorReset: state drops, config stays, handles keep working.
func TestCollectorReset(t *testing.T) {
	qualityOn(t)
	c := NewCollector(Config{})
	room := testRoom(t, 4, 10, 8)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rendered := randomTrace(rand.New(rand.NewSource(2)), room.N, len(dog.Frames), 0, 0.5)
	c.RecordEpisode("A", room, dog, rendered, 0.5)
	c.Reset()
	if snap := c.Snapshot(); len(snap.Recommenders) != 0 || snap.AlertsTotal != 0 {
		t.Fatalf("reset left state behind: %+v", snap)
	}
	c.RecordEpisode("A", room, dog, rendered, 0.5)
	if snap := c.Snapshot(); snap.Recommenders["A"].Episodes != 1 {
		t.Fatal("collector dead after reset")
	}
}

// TestCollectorDisabledIsInert: with the quality gate closed, On() is false
// and the sim/resilience hooks skip RecordEpisode entirely; and even a direct
// call against a disabled obs registry must not corrupt anything.
func TestCollectorDisabledIsInert(t *testing.T) {
	prevObs := obs.SetEnabled(false)
	prevQ := SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(prevObs)
		SetEnabled(prevQ)
	})
	if On() {
		t.Fatal("On() true with both gates closed")
	}
	prevQ2 := SetEnabled(true)
	if On() {
		t.Fatal("On() true with obs gate closed")
	}
	SetEnabled(prevQ2)
}

// TestQualityDisabledOverheadBudget extends the obs opt-in-cheap contract to
// the quality hook: the disabled-path guard (quality gate + obs gate) must
// stay in the same ns class as a disabled obs counter.
func TestQualityDisabledOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates atomic ops ~40x; the budget only holds uninstrumented")
	}
	prevObs := obs.SetEnabled(false)
	prevQ := SetEnabled(false)
	defer func() {
		obs.SetEnabled(prevObs)
		SetEnabled(prevQ)
	}()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if On() {
				b.Fatal("gate open")
			}
		}
	})
	perOp := time.Duration(res.NsPerOp())
	t.Logf("disabled quality gate: %v/op (%d iters)", perOp, res.N)
	if perOp > 25*time.Nanosecond {
		t.Errorf("disabled quality gate costs %v/op, budget 25ns", perOp)
	}
	if res.AllocsPerOp() != 0 {
		t.Errorf("disabled quality gate allocates (%d allocs/op)", res.AllocsPerOp())
	}
}

// TestWriteJSONAtomic: the snapshot file parses back and never coexists with
// its temp file.
func TestWriteJSONAtomic(t *testing.T) {
	qualityOn(t)
	c := NewCollector(Config{})
	room := testRoom(t, 6, 10, 6)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rendered := randomTrace(rand.New(rand.NewSource(3)), room.N, len(dog.Frames), 0, 0.5)
	c.RecordEpisode("A", room, dog, rendered, 0.5)

	dir := t.TempDir()
	path := filepath.Join(dir, "QUALITY_test.json")
	if err := c.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Recommenders["A"].Episodes != 1 {
		t.Fatalf("round-trip lost data: %+v", snap)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestQualityEndpoint: the /quality route mounts on every debug server via
// the obs.HandleDebug registration in this package's init.
func TestQualityEndpoint(t *testing.T) {
	qualityOn(t)
	def.Reset()
	room := testRoom(t, 9, 10, 6)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rendered := randomTrace(rand.New(rand.NewSource(4)), room.N, len(dog.Frames), 0, 0.5)
	Default().RecordEpisode("ENDPOINT", room, dog, rendered, 0.5)
	t.Cleanup(def.Reset)

	srv, err := obs.ServeDebug("127.0.0.1:0", obs.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint body does not parse: %v\n%s", err, body)
	}
	if _, ok := snap.Recommenders["ENDPOINT"]; !ok {
		t.Fatalf("endpoint snapshot missing recommender: %s", body)
	}
}

// TestCollectorAlertsOnInjectedDrift: a collector fed many good episodes and
// then consistently degraded ones must raise at least one alert, and the
// alert must land in the snapshot, the obs alert counter, and within the
// MaxAlerts bound.
func TestCollectorAlertsOnInjectedDrift(t *testing.T) {
	qualityOn(t)
	// Small warmup so the test stays fast; thresholds at defaults.
	cfg := Config{}
	cfg.Detector.Warmup = 16
	c := NewCollector(cfg)
	room := testRoom(t, 11, 12, 30)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rng := rand.New(rand.NewSource(5))
	good := randomTrace(rng, room.N, len(dog.Frames), 0, 0.6)
	for ep := 0; ep < 4; ep++ {
		c.RecordEpisode("DRIFT", room, dog, good, 0.5)
	}
	// Degraded regime: render nobody — utility collapses, regret spikes.
	empty := make([][]bool, len(dog.Frames))
	for i := range empty {
		empty[i] = make([]bool, room.N)
	}
	for ep := 0; ep < 4; ep++ {
		c.RecordEpisode("DRIFT", room, dog, empty, 0.5)
	}
	snap := c.Snapshot()
	if snap.AlertsTotal == 0 {
		t.Fatal("no alerts after a collapse to zero utility")
	}
	rr := snap.Recommenders["DRIFT"]
	if len(rr.Alerts) == 0 {
		t.Fatal("alerts counted but none retained")
	}
	if len(rr.Alerts) > c.cfg.MaxAlerts {
		t.Fatalf("retained %d alerts, cap %d", len(rr.Alerts), c.cfg.MaxAlerts)
	}
	for _, a := range rr.Alerts {
		if !strings.Contains(a.Series, "/DRIFT/") {
			t.Fatalf("alert series %q not tagged with the recommender", a.Series)
		}
		if a.Detector != "ewma" && a.Detector != "cusum" {
			t.Fatalf("unknown detector %q", a.Detector)
		}
	}
}

// TestSnapshotIndependentOfArrivalOrder: parallel evaluation records
// episodes in whatever order its workers finish, so the same episodes
// recorded in two different orders — each target's own episodes still in
// sequence — must produce identical snapshots: the same totals to the last
// bit and the same retained alert list.
func TestSnapshotIndependentOfArrivalOrder(t *testing.T) {
	qualityOn(t)
	cfg := Config{}
	cfg.Detector.Warmup = 8
	room := testRoom(t, 13, 12, 20)
	rng := rand.New(rand.NewSource(21))
	type episode struct {
		dog      *occlusion.DOG
		rendered [][]bool
	}
	// Per target: a good episode, then a collapsed one that trips alerts.
	byTarget := make([][]episode, 6)
	for target := range byTarget {
		dog := occlusion.BuildDOG(target, room.Traj, room.AvatarRadius)
		empty := make([][]bool, len(dog.Frames))
		for i := range empty {
			empty[i] = make([]bool, room.N)
		}
		byTarget[target] = []episode{
			{dog, randomTrace(rng, room.N, len(dog.Frames), target, 0.6)},
			{dog, empty},
		}
	}
	snapshot := func(order []int) []byte {
		c := NewCollector(cfg)
		next := make([]int, len(byTarget))
		for _, target := range order {
			ep := byTarget[target][next[target]]
			next[target]++
			c.RecordEpisode("ORDER", room, ep.dog, ep.rendered, 0.5)
		}
		snap := c.Snapshot()
		snap.Timestamp = ""
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ascending := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	interleaved := []int{5, 3, 1, 4, 5, 0, 2, 3, 1, 0, 4, 2}
	a, b := snapshot(ascending), snapshot(interleaved)
	if !strings.Contains(string(a), `"alerts":[`) {
		t.Fatal("no alerts retained; the test needs alerts from several targets")
	}
	if string(a) != string(b) {
		t.Fatalf("snapshots depend on arrival order:\n  target-major: %s\n  interleaved:  %s", a, b)
	}
}
