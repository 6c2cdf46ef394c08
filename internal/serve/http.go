package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"after/internal/geom"
)

// reqIDKey carries the request id through context from ingress middleware to
// the serving entry points.
type reqIDKey struct{}

// reqIDPrefix makes ids from different daemon processes distinguishable; the
// per-process sequence keeps generation to one atomic add on the hot path.
var reqIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "after"
	}
	return hex.EncodeToString(b[:])
}()

var reqIDSeq atomic.Uint64

// newRequestID mints a process-unique request id for clients that sent none.
func newRequestID() string {
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDSeq.Add(1), 16)
}

// WithRequestID stamps a request id into ctx; in-process callers (tests, the
// load sweep) use it to correlate Recommend calls with wide events the same
// way HTTP clients use the X-Request-ID header.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom extracts the request id from ctx; empty when none was set.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// withRequestID is the ingress middleware: accept the client's X-Request-ID
// (or mint one), echo it on EVERY response — 2xx, 429/503 sheds, and 500s
// alike, which is why the header is set before the inner handler runs — and
// stash it in the request context for wide events and trace correlation.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
	})
}

// Handler returns the daemon's HTTP API (Go 1.22 pattern routing):
//
//	POST /v1/rooms                    create a room (RoomSpec body)
//	GET  /v1/rooms                    list room stats
//	GET  /v1/rooms/{id}               one room's stats
//	POST /v1/rooms/{id}/frames        ingest a position frame
//	POST /v1/rooms/{id}/recommend     request a rendered set
//	GET  /healthz                     liveness (always 200 while serving)
//	GET  /readyz                      readiness (503 once draining)
//	GET  /slo                         error-budget + burn-rate snapshot
//
// Shed responses (429/503 with a JSON error body) always carry a
// Retry-After header, and every response echoes the request's X-Request-ID
// (client-supplied or server-minted).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /slo", s.slo.Handler())
	mux.HandleFunc("POST /v1/rooms", s.handleCreateRoom)
	mux.HandleFunc("GET /v1/rooms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Rooms())
	})
	mux.HandleFunc("GET /v1/rooms/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.RoomInfo(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/rooms/{id}/frames", s.handleFrame)
	mux.HandleFunc("POST /v1/rooms/{id}/recommend", s.handleRecommend)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return withRequestID(mux)
}

func (s *Server) handleCreateRoom(w http.ResponseWriter, r *http.Request) {
	var spec RoomSpec
	if err := decodeJSON(r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	info, err := s.CreateRoom(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// frameBody is the ingestion payload: the producer-claimed index and the
// observed positions as [x, z] pairs. Positions may be short, over-long, or
// non-finite — the sanitizer repairs them (JSON cannot carry NaN, so the
// wire encodes a missing coordinate as null, decoded to NaN below).
type frameBody struct {
	Index     int          `json:"index"`
	Positions [][]*float64 `json:"positions"`
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	var body frameBody
	if err := decodeJSON(r, &body); err != nil {
		writeErr(w, err)
		return
	}
	raw := make([]geom.Vec2, len(body.Positions))
	for i, p := range body.Positions {
		raw[i] = geom.Vec2{X: nanIfNil(p, 0), Z: nanIfNil(p, 1)}
	}
	ack, err := s.IngestFrame(r.PathValue("id"), body.Index, raw)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func nanIfNil(p []*float64, i int) float64 {
	if i >= len(p) || p[i] == nil {
		return math.NaN()
	}
	return *p[i]
}

// recBody is the recommendation payload.
type recBody struct {
	Target     int     `json:"target"`
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var body recBody
	if err := decodeJSON(r, &body); err != nil {
		writeErr(w, err)
		return
	}
	res, err := s.Recommend(r.Context(), r.PathValue("id"), body.Target, msDuration(body.DeadlineMs, s.cfg.MaxDeadline))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// msDuration converts a client's millisecond budget to a Duration in
// [0, max]; 0 asks for the default. It clamps in floating point first:
// converting a float beyond the int64 range is implementation-defined
// (math.MinInt64 on amd64), which would turn a huge budget into the default
// deadline instead of max.
func msDuration(ms float64, max time.Duration) time.Duration {
	switch d := ms * float64(time.Millisecond); {
	case d >= float64(max):
		return max
	case d > 0:
		return time.Duration(d)
	}
	return 0
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	if err := dec.Decode(v); err != nil {
		return &APIError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("bad request body: %v", err)}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders an error: APIErrors keep their status and, when shedding,
// attach the Retry-After header; anything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	ae, ok := err.(*APIError)
	if !ok {
		ae = &APIError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(ae.RetryAfter)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":          ae.Msg,
		"retry_after_ms": ae.RetryAfter.Milliseconds(),
	})
}
