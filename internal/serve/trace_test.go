package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"after/internal/obs"
	"after/internal/obs/wide"
)

// chromeEvent is the slice of the Chrome trace-event schema the assertions
// need: X spans carry args.span_id/args.parent, flow pairs carry args.from/
// args.to under cat "after.link".
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Args map[string]any `json:"args"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func exportTrace(t *testing.T) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.DefaultTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

func argU64(args map[string]any, key string) uint64 {
	v, _ := args[key].(float64)
	return uint64(v)
}

// TestRequestIDEchoedOnEveryResponse: the X-Request-ID header must appear on
// every HTTP response — success, client errors, and notably the shed paths
// (429/503), where the body is an error and the header is the only join key
// into the access log and trace.
func TestRequestIDEchoedOnEveryResponse(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+path, bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	requireID := func(resp *http.Response, wantStatus int) string {
		t.Helper()
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatalf("no X-Request-ID on %d response", resp.StatusCode)
		}
		return id
	}

	requireID(post("/v1/rooms", `{"name":"r","users":8}`, nil), http.StatusCreated)
	// 409: room exists but has no frames yet.
	requireID(post("/v1/rooms/r/recommend", `{"target":0}`, nil), http.StatusConflict)
	requireID(post("/v1/rooms/r/frames", `{"index":0,"positions":[[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7],[8,8]]}`, nil), http.StatusOK)

	// Success: header and body request_id agree.
	resp := post("/v1/rooms/r/recommend", `{"target":2,"deadline_ms":200}`, nil)
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: %d %s", resp.StatusCode, data)
	}
	hdrID := resp.Header.Get("X-Request-ID")
	var rr RecResult
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if hdrID == "" || rr.RequestID != hdrID {
		t.Fatalf("header id %q vs body id %q", hdrID, rr.RequestID)
	}

	// A caller-supplied id is honored, not replaced.
	resp = post("/v1/rooms/r/recommend", `{"target":1,"deadline_ms":200}`, map[string]string{"X-Request-ID": "caller-abc-1"})
	if id := requireID(resp, http.StatusOK); id != "caller-abc-1" {
		t.Fatalf("caller id not echoed: %q", id)
	}

	// Client errors still carry the id.
	requireID(post("/v1/rooms/nope/recommend", `{"target":0}`, nil), http.StatusNotFound)
	requireID(post("/v1/rooms/r/recommend", `not json`, nil), http.StatusBadRequest)

	// Drain shed (503): the header survives the error path too.
	s.draining.Store(true)
	requireID(post("/v1/rooms/r/recommend", `{"target":0}`, nil), http.StatusServiceUnavailable)
}

// TestRequestIDOnRoomQueueShed pins the 429 path specifically: a full room
// queue sheds with Retry-After AND the request id header.
func TestRequestIDOnRoomQueueShed(t *testing.T) {
	s := newTestServer(t, Config{
		Primary:     testRec{name: "slow", delay: 150 * time.Millisecond},
		MaxBatch:    1,
		RoomQueue:   1,
		Concurrency: 1,
		MaxDeadline: time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	// First request occupies the single worker for 150ms...
	go s.Recommend(context.Background(), "r", 0, time.Minute)
	time.Sleep(30 * time.Millisecond)
	// ...second fills the depth-1 queue...
	go s.Recommend(context.Background(), "r", 1, time.Minute)
	time.Sleep(30 * time.Millisecond)
	// ...so the third must shed 429, with the id on the response.
	resp, err := http.Post(ts.URL+"/v1/rooms/r/recommend", "application/json",
		strings.NewReader(`{"target":2,"deadline_ms":60000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID on 429 shed")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on 429 shed")
	}
}

// TestWideEventsPerRequest: with an access log configured, every finished
// request yields one JSONL wide event (SampleN=-1 keeps all), sheds and
// client errors included, and the drain performs the final flush so the file
// is complete after Drain returns.
func TestWideEventsPerRequest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.jsonl")
	w, err := wide.Open(path, wide.Options{SampleN: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Primary: testRec{name: "test"}, AccessLog: w})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	ctx := context.Background()
	var okIDs []string
	for target := 0; target < 3; target++ {
		res, err := s.Recommend(ctx, "r", target, 0)
		if err != nil {
			t.Fatalf("Recommend(%d): %v", target, err)
		}
		if res.RequestID == "" {
			t.Fatal("no request id on result")
		}
		okIDs = append(okIDs, res.RequestID)
	}
	// A client error (bad target) must be logged too — errors always bypass
	// sampling.
	if _, err := s.Recommend(ctx, "r", 99, 0); err == nil {
		t.Fatal("bad target accepted")
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("wide events: %d, want 4\n%s", len(lines), data)
	}
	byID := map[string]wideEvent{}
	var badTarget *wideEvent
	for _, line := range lines {
		var ev wideEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable wide event %q: %v", line, err)
		}
		if ev.RequestID == "" || ev.Room != "r" {
			t.Fatalf("incomplete wide event: %+v", ev)
		}
		if ev.Status == http.StatusBadRequest {
			e := ev
			badTarget = &e
			continue
		}
		byID[ev.RequestID] = ev
	}
	for i, id := range okIDs {
		ev, ok := byID[id]
		if !ok {
			t.Fatalf("no wide event for accepted request %s", id)
		}
		if ev.Status != http.StatusOK || !ev.Fresh || ev.Target != i || ev.ServedBy != "test" {
			t.Fatalf("wide event for %s: %+v", id, ev)
		}
		if ev.DeadlineMs <= 0 || ev.SpentMs < 0 {
			t.Fatalf("missing budget accounting: %+v", ev)
		}
	}
	if badTarget == nil {
		t.Fatal("client-error request missing from access log")
	}
	if badTarget.Error == "" {
		t.Fatalf("400 event has no error detail: %+v", badTarget)
	}
}

// TestWideEventShedKept: a shed request is always kept even under aggressive
// sampling, and carries its shed reason.
func TestWideEventShedKept(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.jsonl")
	// SampleN so large that no healthy event survives sampling.
	w, err := wide.Open(path, wide.Options{SampleN: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Primary: testRec{name: "test"}, AccessLog: w})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))
	ctx := context.Background()
	if _, err := s.Recommend(ctx, "r", 0, 0); err != nil {
		t.Fatal(err)
	}
	s.draining.Store(true)
	if _, err := s.Recommend(ctx, "r", 1, 0); apiStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("expected drain shed, got %v", err)
	}
	// Drain's CAS already fired via the manual Store, so flush the log
	// directly — this test is about sampling, not the drain path.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly the shed event, got %d lines:\n%s", len(lines), data)
	}
	var ev wideEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Status != http.StatusServiceUnavailable || ev.ShedReason == "" {
		t.Fatalf("shed event: %+v", ev)
	}
}

// TestHugeDeadlineClampsToMax: a deadline_ms past the int64 nanosecond range
// is served at MaxDeadline, not at the 50ms default an out-of-range float
// conversion would produce.
func TestHugeDeadlineClampsToMax(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.jsonl")
	w, err := wide.Open(path, wide.Options{SampleN: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Primary: testRec{name: "test"}, AccessLog: w})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))
	for _, ms := range []string{"1e13", "1e300"} {
		resp, err := http.Post(ts.URL+"/v1/rooms/r/recommend", "application/json",
			strings.NewReader(`{"target":1,"deadline_ms":`+ms+`}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline_ms %s: status %d", ms, resp.StatusCode)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("wide events: %d, want 2\n%s", len(lines), data)
	}
	wantMs := float64(s.cfg.MaxDeadline) / float64(time.Millisecond)
	for _, line := range lines {
		var ev wideEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.DeadlineMs != wantMs {
			t.Fatalf("served deadline %vms, want MaxDeadline %vms", ev.DeadlineMs, wantMs)
		}
	}
}

// TestBatchSpanLinksMemberRequests is the tentpole acceptance test: N
// concurrent requests coalesce into ONE fused batch, and the exported trace
// must contain one serve.batch span with a cross-goroutine link from every
// member's serve.request span, and one room.convert child for the batch's
// frame conversion — at one batch-processing slot and at eight.
func TestBatchSpanLinksMemberRequests(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(map[int]string{1: "concurrency-1", 8: "concurrency-8"}[workers], func(t *testing.T) {
			defer obs.SetTracing(obs.SetTracing(true))

			const nReq = 6
			s := newTestServer(t, Config{
				Primary:     fusedRec{name: "test"},
				MaxBatch:    nReq,
				BatchWindow: time.Minute, // flush on size only: exactly one batch
				MaxDeadline: time.Minute,
				Concurrency: workers,
			})
			mustCreate(t, s, RoomSpec{Name: "r", Users: 12})
			mustFrame(t, s, "r", 0, framePos(12, 0))

			results := make([]RecResult, nReq)
			var wg sync.WaitGroup
			for i := 0; i < nReq; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := s.Recommend(context.Background(), "r", i, time.Minute)
					if err != nil {
						t.Errorf("Recommend(%d): %v", i, err)
						return
					}
					results[i] = res
				}(i)
			}
			wg.Wait()

			reqSpans := map[uint64]bool{}
			for i, res := range results {
				if res.SpanID == 0 {
					t.Fatalf("request %d has no span id (tracing on)", i)
				}
				if !res.Fused || res.BatchSize != nReq {
					t.Fatalf("request %d not coalesced: fused=%v batch=%d", i, res.Fused, res.BatchSize)
				}
				reqSpans[res.SpanID] = true
			}
			if len(reqSpans) != nReq {
				t.Fatalf("span ids not distinct: %v", reqSpans)
			}

			doc := exportTrace(t)
			batchSpans := map[uint64]bool{}
			queueParents := map[uint64]bool{}
			for _, ev := range doc.TraceEvents {
				if ev.Ph != "X" {
					continue
				}
				switch ev.Name {
				case "serve.batch":
					batchSpans[argU64(ev.Args, "span_id")] = true
				case "serve.queue":
					queueParents[argU64(ev.Args, "parent")] = true
				case "serve.request":
					if id := argU64(ev.Args, "span_id"); !reqSpans[id] {
						// Spans from other subtests share the ring; ignore.
						continue
					}
				}
			}
			// Every request span parented a queue span.
			for id := range reqSpans {
				if !queueParents[id] {
					t.Errorf("request span %d has no serve.queue child", id)
				}
			}
			// Every request span flows into the same serve.batch span.
			linkedTo := map[uint64]uint64{}
			for _, ev := range doc.TraceEvents {
				if ev.Cat != "after.link" || ev.Ph != "s" {
					continue
				}
				from, to := argU64(ev.Args, "from"), argU64(ev.Args, "to")
				if reqSpans[from] {
					linkedTo[from] = to
				}
			}
			if len(linkedTo) != nReq {
				t.Fatalf("linked %d of %d request spans: %v", len(linkedTo), nReq, linkedTo)
			}
			var batch uint64
			for from, to := range linkedTo {
				if !batchSpans[to] {
					t.Fatalf("request %d links to %d, which is not a serve.batch span", from, to)
				}
				if batch == 0 {
					batch = to
				} else if to != batch {
					t.Fatalf("requests link to different batches (%d vs %d) — coalescing broke", to, batch)
				}
			}
			// The fused members' frames are built in one fan-out under the
			// batch: exactly one conversion span.
			converts := 0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" && ev.Name == "room.convert" && argU64(ev.Args, "parent") == batch {
					converts++
				}
			}
			if converts != 1 {
				t.Fatalf("serve.batch span %d has %d room.convert children, want 1", batch, converts)
			}
		})
	}
}

// TestSLOEndpointAndAccounting: /slo serves the tracker's live snapshot, and
// the tracker books fresh serves as good, sheds as bad, and client errors not
// at all.
func TestSLOEndpointAndAccounting(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Recommend(ctx, "r", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Client error: not the server's failure, must not burn budget.
	s.Recommend(ctx, "r", 99, 0)
	snap := s.SLO().Snapshot()
	if snap.Good != 3 || snap.Bad != 0 {
		t.Fatalf("after 3 ok + 1 client error: good=%d bad=%d", snap.Good, snap.Bad)
	}

	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slo: %d", resp.StatusCode)
	}
	var got struct {
		Name      string  `json:"name"`
		Objective float64 `json:"objective"`
		Good      int64   `json:"good"`
		FastBurn  bool    `json:"fast_burn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "serve" || got.Objective != 0.99 || got.Good != 3 {
		t.Fatalf("/slo snapshot: %+v", got)
	}
	if got.FastBurn {
		t.Fatal("healthy server in fast-burn alert")
	}

	// A shed burns budget.
	s.draining.Store(true)
	s.Recommend(ctx, "r", 0, 0)
	if snap := s.SLO().Snapshot(); snap.Bad != 1 {
		t.Fatalf("shed not booked as bad: %+v", snap)
	}
}
