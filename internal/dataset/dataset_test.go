package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"after/internal/occlusion"
)

func smallCfg(kind Kind) Config {
	return Config{Kind: kind, PlatformUsers: 300, RoomUsers: 40, T: 10, Seed: 1}
}

func TestGenerateAllKindsValid(t *testing.T) {
	for _, kind := range []Kind{Timik, SMM, Hubs} {
		r, err := Generate(smallCfg(kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
		if r.Name != kind.String() {
			t.Errorf("name = %q", r.Name)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	r, err := Generate(Config{Kind: Hubs, Seed: 2, T: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 30 {
		t.Errorf("Hubs default N = %d, want 30", r.N)
	}
	r2, err := Generate(Config{Kind: Timik, Seed: 2, T: 5, PlatformUsers: 500, RoomUsers: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r2.T() != 5 {
		t.Errorf("T = %d", r2.T())
	}
}

func TestVRFractionRespected(t *testing.T) {
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		cfg := smallCfg(SMM)
		cfg.VRFraction = frac
		r, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vr := 0
		for _, i := range r.Interfaces {
			if i == occlusion.VR {
				vr++
			}
		}
		want := int(float64(r.N)*frac + 0.5)
		if vr != want {
			t.Errorf("frac %v: %d VR users, want %d", frac, vr, want)
		}
		if r.MRCount() != r.N-vr {
			t.Errorf("MRCount = %d", r.MRCount())
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := Generate(smallCfg(Timik))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallCfg(Timik))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatal("same seed produced different preference matrices")
		}
	}
	for ti := range a.Traj.Pos {
		for u := range a.Traj.Pos[ti] {
			if a.Traj.Pos[ti][u] != b.Traj.Pos[ti][u] {
				t.Fatal("same seed produced different trajectories")
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := smallCfg(Timik)
	a, _ := Generate(cfg)
	cfg.Seed = 99
	b, _ := Generate(cfg)
	same := true
	for i := range a.P {
		if a.P[i] != b.P[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical rooms")
	}
}

func TestRoomSociallyConnected(t *testing.T) {
	// Snowball sampling should yield far more edges than uniform sampling
	// of 40 users out of 300 would.
	r, err := Generate(smallCfg(Timik))
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph.EdgeCount() < r.N/2 {
		t.Errorf("room nearly edgeless: %d edges for %d users", r.Graph.EdgeCount(), r.N)
	}
}

func TestSMMWeightsHeavyTailed(t *testing.T) {
	r, err := Generate(smallCfg(SMM))
	if err != nil {
		t.Fatal(err)
	}
	maxW := r.Graph.MaxWeight()
	if maxW <= 1.5 {
		t.Errorf("SMM max weight %v looks unit-like", maxW)
	}
	rt, err := Generate(smallCfg(Timik))
	if err != nil {
		t.Fatal(err)
	}
	if w := rt.Graph.MaxWeight(); w > 1.5 {
		t.Errorf("Timik weight %v should be near unit", w)
	}
}

func TestPlatformDegreeSkew(t *testing.T) {
	cfg := Config{Kind: Timik, PlatformUsers: 1000, RoomUsers: 10, T: 2, Seed: 3}.withDefaults()
	rngRoom, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = rngRoom
	// Inspect the platform directly.
	g, _ := generatePlatformForTest(cfg)
	maxDeg, sumDeg := 0, 0
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sumDeg) / float64(g.N())
	if float64(maxDeg) < 3*avg {
		t.Errorf("degree distribution not skewed: max %d, avg %.1f", maxDeg, avg)
	}
}

func TestHubsSlowerThanTimik(t *testing.T) {
	th, err := Generate(Config{Kind: Hubs, PlatformUsers: 300, RoomUsers: 25, T: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := Generate(Config{Kind: Timik, PlatformUsers: 300, RoomUsers: 25, T: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if avgStep(th) >= avgStep(tt) {
		t.Errorf("Hubs users (%v m/step) should move slower than Timik (%v m/step)",
			avgStep(th), avgStep(tt))
	}
}

func avgStep(r *Room) float64 {
	total, count := 0.0, 0
	for ti := 1; ti < r.Traj.Steps(); ti++ {
		for u := 0; u < r.N; u++ {
			total += r.Traj.At(ti, u).Dist(r.Traj.At(ti-1, u))
			count++
		}
	}
	return total / float64(count)
}

func TestGenerateRoomsDistinct(t *testing.T) {
	rooms, err := GenerateRooms(smallCfg(SMM), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rooms) != 3 {
		t.Fatalf("got %d rooms", len(rooms))
	}
	if rooms[0].P[1] == rooms[1].P[1] && rooms[0].P[2] == rooms[1].P[2] &&
		rooms[0].P[3] == rooms[1].P[3] {
		t.Error("rooms look identical")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Kind: Timik, PlatformUsers: 10, RoomUsers: 20, T: 2}); err == nil {
		t.Error("oversized room not rejected")
	}
	if _, err := Generate(Config{Kind: Timik, PlatformUsers: 10, RoomUsers: 1, T: 2}); err == nil {
		t.Error("single-user room not rejected")
	}
	for _, vr := range []float64{2, -0.5, 1.0001, math.NaN()} {
		if _, err := Generate(Config{Kind: Timik, PlatformUsers: 60, RoomUsers: 40, T: 2, VRFraction: vr}); err == nil {
			t.Errorf("VR fraction %v not rejected", vr)
		}
	}
}

func TestRoundTripSerialization(t *testing.T) {
	r, err := Generate(smallCfg(SMM))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRoom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != r.N || got.Name != r.Name {
		t.Error("metadata mismatch")
	}
	for i := range r.P {
		if got.P[i] != r.P[i] || got.S[i] != r.S[i] {
			t.Fatal("utility mismatch after round trip")
		}
	}
	if got.Graph.EdgeCount() != r.Graph.EdgeCount() {
		t.Errorf("edges %d vs %d", got.Graph.EdgeCount(), r.Graph.EdgeCount())
	}
	for u := 0; u < r.N; u++ {
		for _, v := range r.Graph.Neighbors(u) {
			if math.Abs(got.Graph.Weight(u, v)-r.Graph.Weight(u, v)) > 1e-15 {
				t.Fatal("edge weight mismatch")
			}
		}
	}
	for ti := range r.Traj.Pos {
		for u := range r.Traj.Pos[ti] {
			if got.Traj.Pos[ti][u] != r.Traj.Pos[ti][u] {
				t.Fatal("trajectory mismatch")
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	r, err := Generate(smallCfg(Hubs))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "room.gob")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != r.N {
		t.Error("N mismatch after file round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gob")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestReadRoomRejectsCorrupt(t *testing.T) {
	if _, err := ReadRoom(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Error("corrupt stream accepted")
	}
}
