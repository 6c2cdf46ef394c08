package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/parallel"
	"after/internal/sim"
)

// runScenario drives one server through a fixed request schedule and returns
// a canonical transcript: `rounds` rounds, each ingesting a fresh frame and
// then firing one concurrent request per target in `targets`. Awaiting every
// request before the next round makes the per-guard step sequence identical
// across batching configurations and worker counts (each guard sees exactly
// one Step per round, in round order), which is the property under test.
func runScenario(t *testing.T, cfg Config, users, rounds int, targets []int) []string {
	t.Helper()
	if cfg.Primary == nil {
		cfg.Primary = testRec{name: "test"}
	}
	cfg.MaxDeadline = time.Minute
	s := New(cfg)
	defer s.Close()
	mustCreate(t, s, RoomSpec{Name: "r", Users: users, Seed: 11})

	var transcript []string
	for round := 0; round < rounds; round++ {
		mustFrame(t, s, "r", round, framePos(users, round))
		results := make([]RecResult, len(targets))
		var wg sync.WaitGroup
		for i, target := range targets {
			wg.Add(1)
			go func(i, target int) {
				defer wg.Done()
				res, err := s.Recommend(context.Background(), "r", target, time.Minute)
				if err != nil {
					t.Errorf("round %d target %d: %v", round, target, err)
					return
				}
				results[i] = res
			}(i, target)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, res := range results {
			transcript = append(transcript, fmt.Sprintf(
				"round=%d target=%d step=%d fresh=%v by=%s rendered=%v",
				round, targets[i], res.Step, res.Fresh, res.ServedBy, res.Rendered))
		}
	}
	return transcript
}

// TestBatchedBitIdenticalToPerRequest: coalescing N concurrent requests into
// one micro-batch must produce exactly the outputs of stepping them one
// request at a time (MaxBatch=1), including the recurrent-state evolution of
// each per-target session across rounds.
func TestBatchedBitIdenticalToPerRequest(t *testing.T) {
	targets := []int{0, 2, 4, 6, 9}
	perRequest := runScenario(t, Config{MaxBatch: 1}, 10, 6, targets)
	batched := runScenario(t, Config{MaxBatch: 16, BatchWindow: 5 * time.Millisecond}, 10, 6, targets)
	if len(perRequest) != len(batched) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(perRequest), len(batched))
	}
	for i := range perRequest {
		if perRequest[i] != batched[i] {
			t.Fatalf("transcripts diverge at %d:\n  per-request: %s\n  batched:     %s", i, perRequest[i], batched[i])
		}
	}
}

// TestBatchBitIdenticalAcrossWorkerCounts: the batched fan-out over the
// worker pool must be schedule-independent — one worker and eight workers
// produce identical transcripts.
func TestBatchBitIdenticalAcrossWorkerCounts(t *testing.T) {
	targets := []int{1, 3, 5, 7, 8, 11}
	cfg := Config{MaxBatch: 16, BatchWindow: 5 * time.Millisecond}
	var one, eight []string
	parallel.WithLimit(1, func() {
		one = runScenario(t, cfg, 12, 5, targets)
	})
	parallel.WithLimit(8, func() {
		eight = runScenario(t, cfg, 12, 5, targets)
	})
	if len(one) != len(eight) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(one), len(eight))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("workers=1 vs workers=8 diverge at %d:\n  1: %s\n  8: %s", i, one[i], eight[i])
		}
	}
}

// TestBatchFlushOnSize: with an effectively infinite window, a batch must
// flush the moment it reaches MaxBatch — the requests cannot wait out the
// window.
func TestBatchFlushOnSize(t *testing.T) {
	s := newTestServer(t, Config{
		MaxBatch:    4,
		BatchWindow: time.Minute,
		MaxDeadline: time.Minute,
	})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	start := time.Now()
	var wg sync.WaitGroup
	sizes := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Recommend(context.Background(), "r", i, time.Minute)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			sizes[i] = res.BatchSize
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("batch waited %v — it must flush on size, not on the 1-minute window", elapsed)
	}
	// All four landed in batches that flushed before the window; at least
	// one batch coalesced multiple requests unless the worker raced ahead.
	for i, sz := range sizes {
		if sz < 1 || sz > 4 {
			t.Fatalf("request %d batch size %d", i, sz)
		}
	}
}

// TestBatchFlushOnLatency: a lone request must not wait for a full batch —
// the max-latency window bounds its wait.
func TestBatchFlushOnLatency(t *testing.T) {
	s := newTestServer(t, Config{
		MaxBatch:    100,
		BatchWindow: 20 * time.Millisecond,
		MaxDeadline: time.Minute,
	})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	start := time.Now()
	res, err := s.Recommend(context.Background(), "r", 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lone request waited %v for a batch of 100", elapsed)
	}
	if res.BatchSize != 1 {
		t.Fatalf("lone request batch size %d", res.BatchSize)
	}
}

// TestBatchDuplicateTargetCoalesced: concurrent requests for the same
// target in one batch step the session exactly once and share the result.
// MaxBatch equals the request count and the window is effectively infinite,
// so all k requests land in one size-triggered batch by construction.
func TestBatchDuplicateTargetCoalesced(t *testing.T) {
	const k = 6
	s := newTestServer(t, Config{
		MaxBatch:    k,
		BatchWindow: time.Minute,
		MaxDeadline: time.Minute,
	})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	results := make([]RecResult, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Recommend(context.Background(), "r", 2, time.Minute)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.BatchSize != k {
			t.Fatalf("request %d batch size %d, want %d", i, res.BatchSize, k)
		}
		if fmt.Sprint(res.Rendered) != fmt.Sprint(results[0].Rendered) {
			t.Fatalf("request %d got a different rendered set than its batchmates", i)
		}
	}
	info, _ := s.RoomInfo("r")
	if info.Sessions != 1 {
		t.Fatalf("sessions %d, want 1 (single target)", info.Sessions)
	}
	if info.Served != k {
		t.Fatalf("served %d, want %d", info.Served, k)
	}
}

// slowTargetRec is testRec with one slow target.
type slowTargetRec struct {
	testRec
	slow  int
	delay time.Duration
}

func (r slowTargetRec) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	if target == r.slow {
		return &testStepper{n: room.N, target: target, delay: r.delay}
	}
	return r.testRec.StartEpisode(room, target)
}

// TestBatchSlowTargetHoldsNoOtherBack: on the solo path (a primary that
// cannot batch), each target is answered when its own step returns. A
// short-deadline request batched with a slow long-deadline one still comes
// back within its deadline plus the straggler grace, whatever the worker
// pool's size: one worker (a GOMAXPROCS=1 host) as well as two.
func TestBatchSlowTargetHoldsNoOtherBack(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			slowTargetHoldsNoOtherBack(t, workers)
		})
	}
}

func slowTargetHoldsNoOtherBack(t *testing.T, workers int) {
	const slow, dl = 2 * time.Second, 100 * time.Millisecond
	s := newTestServer(t, Config{
		Primary:     slowTargetRec{testRec: testRec{name: "test"}, slow: 1, delay: slow},
		MaxBatch:    2,
		BatchWindow: time.Minute,
		MaxDeadline: time.Minute,
	})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 8})
	mustFrame(t, s, "r", 0, framePos(8, 0))

	parallel.WithLimit(workers, func() {
		slowErr := make(chan error, 1)
		go func() {
			_, err := s.Recommend(context.Background(), "r", 1, 10*time.Second)
			slowErr <- err
		}()
		// The slow request waits in the batch window; the fast one fills
		// the batch.
		for s.queued.Load() != 1 {
			time.Sleep(100 * time.Microsecond)
		}
		start := time.Now()
		res, err := s.Recommend(context.Background(), "r", 0, dl)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("fast request: %v", err)
		}
		if res.BatchSize != 2 || !res.Fresh {
			t.Fatalf("fast request %+v, want a fresh result from a batch of 2", res)
		}
		// Scheduling slack as in TestServeModel, well under the slow step.
		if bound := dl + s.cfg.AbandonAfter + 750*time.Millisecond; elapsed > bound {
			t.Fatalf("fast request took %v, past its bound %v: it waited for the slow target", elapsed, bound)
		}
		if err := <-slowErr; err != nil {
			t.Fatalf("slow request: %v", err)
		}
	})
}

// TestSingleUserTargetEdge: a minimal 2-user room serves a sane result (the
// only other user either rendered or not — never the target itself).
func TestSingleUserTargetEdge(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, RoomSpec{Name: "r", Users: 2})
	mustFrame(t, s, "r", 0, framePos(2, 0))
	res, err := s.Recommend(context.Background(), "r", 1, answerDeadline)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Rendered {
		if w == 1 {
			t.Fatal("target rendered for itself")
		}
	}
}
