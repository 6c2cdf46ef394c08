package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/sim"
)

// testRec is a deterministic, latency-controllable recommender. Its stepper
// carries recurrent state (a call counter), so bit-identity tests detect
// both extra and missing Step calls, not just wrong outputs.
type testRec struct {
	name  string
	delay time.Duration
}

func (r testRec) Name() string { return r.name }

func (r testRec) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return &testStepper{n: room.N, target: target, delay: r.delay}
}

type testStepper struct {
	n      int
	target int
	delay  time.Duration
	calls  int
}

func (st *testStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	if st.delay > 0 {
		time.Sleep(st.delay)
	}
	st.calls++
	out := make([]bool, st.n)
	for w := range out {
		out[w] = w != st.target && (w+t+st.calls+st.target)%3 == 0
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Primary == nil {
		cfg.Primary = testRec{name: "test"}
	}
	s := New(cfg)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// framePos builds a deterministic full-length frame for step t.
func framePos(n, t int) []geom.Vec2 {
	pos := make([]geom.Vec2, n)
	for w := range pos {
		pos[w] = geom.Vec2{
			X: 1 + float64((w*7+t*3)%80)/10,
			Z: 1 + float64((w*13+t*5)%80)/10,
		}
	}
	return pos
}

func mustCreate(t *testing.T, s *Server, spec RoomSpec) RoomInfo {
	t.Helper()
	info, err := s.CreateRoom(spec)
	if err != nil {
		t.Fatalf("CreateRoom: %v", err)
	}
	return info
}

func mustFrame(t *testing.T, s *Server, room string, idx int, pos []geom.Vec2) FrameAck {
	t.Helper()
	ack, err := s.IngestFrame(room, idx, pos)
	if err != nil {
		t.Fatalf("IngestFrame(%d): %v", idx, err)
	}
	return ack
}

func TestServeHappyPath(t *testing.T) {
	s := newTestServer(t, Config{})
	info := mustCreate(t, s, RoomSpec{Name: "r", Users: 12, Seed: 7})
	if info.Users != 12 {
		t.Fatalf("users %d", info.Users)
	}
	ack := mustFrame(t, s, "r", 0, framePos(12, 0))
	if !ack.Applied || ack.Repaired {
		t.Fatalf("ack %+v", ack)
	}
	res, err := s.Recommend(context.Background(), "r", 3, 0)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if res.Target != 3 || res.Step != 0 || !res.Fresh || res.ServedBy != "test" {
		t.Fatalf("result %+v", res)
	}
	for _, w := range res.Rendered {
		if w == 3 {
			t.Fatal("target rendered for itself")
		}
	}
}

func TestServeAdmissionErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := s.Recommend(ctx, "nope", 0, 0); apiStatus(err) != http.StatusNotFound {
		t.Fatalf("missing room: %v", err)
	}
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	if _, err := s.Recommend(ctx, "r", 0, 0); apiStatus(err) != http.StatusConflict {
		t.Fatalf("no frames yet: %v", err)
	}
	mustFrame(t, s, "r", 0, framePos(8, 0))
	if _, err := s.Recommend(ctx, "r", 99, 0); apiStatus(err) != http.StatusBadRequest {
		t.Fatalf("bad target: %v", err)
	}
	if _, err := s.CreateRoom(RoomSpec{Name: "r"}); apiStatus(err) != http.StatusConflict {
		t.Fatal("duplicate room accepted")
	}
	if _, err := s.CreateRoom(RoomSpec{Name: "tiny", Users: 1}); apiStatus(err) != http.StatusBadRequest {
		t.Fatal("1-user room accepted")
	}
	for _, vr := range []float64{2, -0.5} {
		if _, err := s.CreateRoom(RoomSpec{Name: "vr", Users: 40, VRFraction: vr}); apiStatus(err) != http.StatusBadRequest {
			t.Fatalf("vr_fraction %v: %v, want 400", vr, err)
		}
	}
	if _, err := s.CreateRoom(RoomSpec{Name: "long", Users: 8, Horizon: 101}); apiStatus(err) != http.StatusBadRequest {
		t.Fatalf("horizon 101: %v, want 400", err)
	}
}

func apiStatus(err error) int {
	if ae, ok := err.(*APIError); ok {
		return ae.Status
	}
	return 0
}

// TestFrameStaleIndexDropped: duplicate and regressed frame indices must not
// roll serving state backwards.
func TestFrameStaleIndexDropped(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))
	mustFrame(t, s, "r", 5, framePos(8, 5))
	if ack := mustFrame(t, s, "r", 5, framePos(8, 99)); ack.Applied {
		t.Fatal("duplicate index applied")
	}
	if ack := mustFrame(t, s, "r", 3, framePos(8, 99)); ack.Applied {
		t.Fatal("regressed index applied")
	}
	res, err := s.Recommend(context.Background(), "r", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 5 {
		t.Fatalf("serving step %d, want 5 (latest applied frame)", res.Step)
	}
}

// TestFrameSanitized: NaN coordinates and short frames are repaired, and the
// repair is reported in the ack.
func TestFrameSanitized(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	bad := framePos(8, 0)
	bad[2].X = math.NaN()
	if ack := mustFrame(t, s, "r", 0, bad); !ack.Repaired {
		t.Fatal("NaN frame not flagged as repaired")
	}
	if ack := mustFrame(t, s, "r", 1, framePos(8, 1)[:5]); !ack.Repaired {
		t.Fatal("short frame not flagged as repaired")
	}
	if _, err := s.Recommend(context.Background(), "r", 0, 0); err != nil {
		t.Fatalf("recommend after repaired frames: %v", err)
	}
}

// TestHTTPAPI drives the full HTTP surface, including the null-coordinate
// wire encoding and shed/error response shapes.
func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	resp, body := post("/v1/rooms", `{"name":"r","users":10,"seed":3}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	// Frame with a null coordinate (the JSON encoding of NaN) and a short row.
	resp, body = post("/v1/rooms/r/frames", `{"index":0,"positions":[[1,1],[2,null],[3],[4,4],[5,5],[6,6],[7,7],[8,8],[9,9],[2,3]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame: %d %s", resp.StatusCode, body)
	}
	var ack FrameAck
	if err := json.Unmarshal(body, &ack); err != nil || !ack.Applied || !ack.Repaired {
		t.Fatalf("frame ack %s (err %v)", body, err)
	}
	resp, body = post("/v1/rooms/r/recommend", `{"target":2,"deadline_ms":200}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: %d %s", resp.StatusCode, body)
	}
	var rec RecResult
	if err := json.Unmarshal(body, &rec); err != nil || rec.Target != 2 || !rec.Fresh {
		t.Fatalf("recommend body %s (err %v)", body, err)
	}
	// Error surface.
	if resp, _ = post("/v1/rooms/nope/recommend", `{"target":0}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing room: %d", resp.StatusCode)
	}
	if resp, _ = post("/v1/rooms/r/recommend", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	// Stats.
	get, err := http.Get(ts.URL + "/v1/rooms/r")
	if err != nil {
		t.Fatal(err)
	}
	var info RoomInfo
	if err := json.NewDecoder(get.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if info.Served != 1 || info.Frames != 1 {
		t.Fatalf("stats %+v", info)
	}
}

// TestDrainLifecycle: drain flips readiness, sheds new work with
// Retry-After, flushes queued requests, writes snapshots, and is idempotent.
func TestDrainLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Primary: testRec{name: "test"}, SnapshotDir: dir})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))
	if _, err := s.Recommend(context.Background(), "r", 0, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Admissions are stopped.
	if _, err := s.Recommend(context.Background(), "r", 0, 0); apiStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("recommend after drain: %v", err)
	}
	if _, err := s.CreateRoom(RoomSpec{Name: "r2"}); apiStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("create after drain: %v", err)
	}
	// Snapshots landed.
	for _, name := range []string{"OBS_serve.json", "QUALITY_serve.json"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil || st.Size() == 0 {
			t.Fatalf("snapshot %s: %v", name, err)
		}
	}
	// The listener is really down.
	if _, err := http.Get(base + "/readyz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	// Idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestReadyzDrainingStatus covers the in-flight view of readiness: a server
// that is draining but still up answers 503 on /readyz via the handler.
func TestReadyzDrainingStatus(t *testing.T) {
	s := newTestServer(t, Config{})
	s.draining.Store(true)
	req := httptest.NewRequest("GET", "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", w.Code)
	}
}
