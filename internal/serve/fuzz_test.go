package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"after/internal/core"
	"after/internal/dataset"
	"after/internal/sim"
)

// fuzzPrimary serves an untrained POSHGNN through its fused batch session,
// so fuzzed frames reach the real converter and forward pass.
type fuzzPrimary struct{ m *core.POSHGNN }

func (p fuzzPrimary) Name() string { return "POSHGNN" }

func (p fuzzPrimary) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return p.m.StartBatchSession(room, core.BatchOptions{}).View(target)
}

func (p fuzzPrimary) StartBatch(room *dataset.Room) sim.BatchStepper {
	return p.m.StartBatchSession(room, core.BatchOptions{})
}

// FuzzHandlerBodies posts a fuzzed frame body and then a fuzzed recommend
// body through Server.Handler(). Neither may panic or answer 500, every shed
// carries Retry-After, and an applied frame leaves the room holding N finite
// positions.
func FuzzHandlerBodies(f *testing.F) {
	s := New(Config{
		Primary:     fuzzPrimary{core.New(core.Config{UseMIA: true, UseLWP: true, Seed: 1})},
		BatchWindow: time.Microsecond,
	})
	defer s.Close()
	const users = 8
	if _, err := s.CreateRoom(RoomSpec{Name: "r", Users: users}); err != nil {
		f.Fatal(err)
	}
	rs, _ := s.roomByID("r")
	h := s.Handler()
	post := func(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := w.Code; {
		case code >= 500 && code != http.StatusServiceUnavailable:
			t.Fatalf("POST %s %q: status %d: %s", path, body, code, w.Body)
		case (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) && w.Header().Get("Retry-After") == "":
			t.Fatalf("POST %s %q: shed %d without Retry-After", path, body, code)
		}
		return w
	}

	f.Fuzz(func(t *testing.T, frame, rec []byte) {
		// Forget the last frame's index so every well-formed body with a
		// non-negative index is applied.
		rs.fmu.Lock()
		rs.frameIdx = -1
		rs.fmu.Unlock()

		w := post(t, "/v1/rooms/r/frames", frame)
		var ack FrameAck
		if w.Code == http.StatusOK && json.Unmarshal(w.Body.Bytes(), &ack) == nil && ack.Applied {
			rs.fmu.Lock()
			pos := rs.pos
			rs.fmu.Unlock()
			if len(pos) != users {
				t.Fatalf("applied frame %q left %d positions, want %d", frame, len(pos), users)
			}
			for i, p := range pos {
				if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Z) || math.IsInf(p.Z, 0) {
					t.Fatalf("applied frame %q left position %d non-finite: %v", frame, i, p)
				}
			}
		}
		post(t, "/v1/rooms/r/recommend", rec)
	})
}
