package serve

import (
	"sync"
	"time"

	"after/internal/obs"
)

// pending is one admitted recommendation request waiting in a room's queue.
type pending struct {
	target int
	// deadline is the absolute expiry; zero means unbounded.
	deadline time.Time
	// enq is the admission time, charged as queue wait.
	enq time.Time
	// id is the request's X-Request-ID, carried so the batch worker's wide
	// events and spans correlate with the HTTP response.
	id string
	// spanID identifies the request's serve.request span; the batch span
	// links from it so one fused pass points back at every member request.
	spanID obs.SpanID
	// qsp is the serve.queue child span, opened at admission and closed by
	// the batch worker when it picks the request up.
	qsp obs.Span
	// resc receives exactly one outcome (buffered so the batch worker never
	// blocks on a caller that gave up).
	resc chan outcome
}

// outcome is a processed request: either a result or a typed API error.
type outcome struct {
	rec RecResult
	err *APIError
}

// batcher is the per-room micro-batcher (kserve-style): a bounded intake
// queue drained by one worker goroutine that coalesces whatever is waiting —
// blocking for the first request, then collecting up to maxBatch more within
// the max-latency window — and hands each batch to the room session for one
// step call. One worker per room serializes access to the room's
// resilience.Room (single-threaded by contract); cross-room parallelism
// comes from the server's batch-concurrency semaphore, and within a batch
// the frame conversion and the solo steps fan out over the worker pool.
type batcher struct {
	rs       *roomSession
	maxBatch int
	window   time.Duration

	// mu guards closed; enqueue holds it across the send so intake can be
	// closed without racing a send-on-closed-channel panic.
	mu     sync.Mutex
	closed bool
	queue  chan *pending

	// done closes when the worker has drained the queue and exited.
	done chan struct{}
}

func newBatcher(rs *roomSession, queueCap, maxBatch int, window time.Duration) *batcher {
	b := &batcher{
		rs:       rs,
		maxBatch: maxBatch,
		window:   window,
		queue:    make(chan *pending, queueCap),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// enqueue admits p into the room queue without blocking. ok=false means the
// queue is full (shed with 429) or intake is closed (draining; shed 503) —
// the caller distinguishes via the server's draining flag.
func (b *batcher) enqueue(p *pending) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	select {
	case b.queue <- p:
		return true
	default:
		return false
	}
}

// closeIntake stops admissions; requests already queued still drain through
// the worker (flush-on-drain). Idempotent.
func (b *batcher) closeIntake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
}

// run is the worker loop: block for the first request of a batch, then
// collect until the batch is full or the max-latency window expires, then
// process. A closed intake drains naturally — receives keep returning
// buffered requests until the channel is empty, then ok=false ends the loop.
func (b *batcher) run() {
	defer close(b.done)
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch := append(make([]*pending, 0, b.maxBatch), first)
		if b.maxBatch > 1 {
			timer := time.NewTimer(b.window)
		collect:
			for len(batch) < b.maxBatch {
				select {
				case p, ok := <-b.queue:
					if !ok {
						break collect
					}
					batch = append(batch, p)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		b.rs.srv.queued.Add(int64(-len(batch)))
		obsQueueGauge.Set(float64(b.rs.srv.queued.Load()))
		// The concurrency semaphore bounds simultaneous batch processing
		// across rooms; queued batches wait here, visibly, as queue_wait.
		b.rs.srv.procSem <- struct{}{}
		// Stall watchdog: a batch owes every member a response within the
		// straggler grace; one still running long past that (the watchdog's
		// configured multiple) is a stall worth an incident bundle. Nil-safe
		// no-op when no watchdog is configured.
		tok := b.rs.srv.cfg.Watchdog.Arm("batch:"+b.rs.id, b.rs.srv.cfg.AbandonAfter)
		b.rs.processBatch(batch)
		b.rs.srv.cfg.Watchdog.Disarm(tok)
		<-b.rs.srv.procSem
	}
}
