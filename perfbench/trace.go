package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/dataset"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/occlusion"
	"after/internal/sim"
)

// epoch is the zero of every timestamp the benchmark records; it is taken
// when the package initialises, which is as close to process start as Go
// code runs.
var epoch = time.Now()

func nanos(t time.Time) int64 { return int64(t.Sub(epoch)) }

// span is one timed call into a layer, kept in memory and written at exit.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int64  `json:"req"`    // request (or op) id, -1 when none
}

// spanLog collects spans from any goroutine.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for use as a parent.
func (l *spanLog) add(name string, iv interval, parent int, req int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: iv.start, End: iv.end, Parent: parent, Req: req})
	return len(l.spans) - 1
}

// maxWrittenSpans bounds the span file: a 30 s plaza run records over half
// a million spans, and the first 200 000 already hold every kind.
const maxWrittenSpans = 200_000

// write stores the spans (the first maxWrittenSpans) as one JSON object at
// path, with the total count.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans := l.spans
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"total": len(l.spans), "spans": spans}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stepCall is one fused StepTargets call as seen from outside the model.
type stepCall struct {
	stepper int // which StartBatch session made the call
	t       int
	targets []int
	iv      interval
}

// stepLog receives every fused step of every session a timedRec started.
type stepLog struct {
	mu       sync.Mutex
	sessions int
	calls    []stepCall
	sets     atomic.Int64 // rendered sets of the room's size the steps returned
}

func (l *stepLog) newSession() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sessions++
	return l.sessions - 1
}

func (l *stepLog) numSessions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sessions
}

func (l *stepLog) add(c stepCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// snapshot returns the calls recorded so far.
func (l *stepLog) snapshot() []stepCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stepCall(nil), l.calls...)
}

// timedRec wraps a batch-capable recommender so every fused step of its
// sessions is timed. It keeps the recommender's name, so telemetry keyed on
// the name is unchanged.
type timedRec struct {
	sim.BatchRecommender
	log *stepLog
}

// StartBatch implements sim.BatchRecommender.
func (r timedRec) StartBatch(room *dataset.Room) sim.BatchStepper {
	return &timedStepper{inner: r.BatchRecommender.StartBatch(room), log: r.log, id: r.log.newSession(), users: room.N}
}

// timedStepper times StepTargets and forwards the trace and profile carriers,
// so the program's own span and label propagation is the same with and
// without the wrapper.
type timedStepper struct {
	inner sim.BatchStepper
	log   *stepLog
	id    int
	users int
}

// StepTargets implements sim.BatchStepper.
func (s *timedStepper) StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool {
	start := time.Now()
	out := s.inner.StepTargets(t, targets, frames)
	end := time.Now()
	s.log.add(stepCall{stepper: s.id, t: t, targets: append([]int(nil), targets...), iv: interval{nanos(start), nanos(end)}})
	for _, o := range out {
		if len(o) == s.users {
			s.log.sets.Add(1)
		}
	}
	return out
}

// SetTraceParent implements sim.TraceCarrier.
func (s *timedStepper) SetTraceParent(parent obs.SpanID) {
	if tc, ok := s.inner.(sim.TraceCarrier); ok {
		tc.SetTraceParent(parent)
	}
}

// SetProfLabels implements prof.Carrier.
func (s *timedStepper) SetProfLabels(l *prof.Labels) {
	if pc, ok := s.inner.(prof.Carrier); ok {
		pc.SetProfLabels(l)
	}
}

// countedRec wraps a per-episode recommender and counts the rendered sets of
// the room's size its steppers return. It keeps the recommender's name. The
// stepper forwards no carrier: Nearest's, the one it wraps, implements none.
type countedRec struct {
	sim.Recommender
	sets *atomic.Int64
}

// StartEpisode implements sim.Recommender.
func (r countedRec) StartEpisode(room *dataset.Room, target int) sim.Stepper {
	return &countedStepper{inner: r.Recommender.StartEpisode(room, target), sets: r.sets, users: room.N}
}

type countedStepper struct {
	inner sim.Stepper
	sets  *atomic.Int64
	users int
}

// Step implements sim.Stepper.
func (s *countedStepper) Step(t int, frame *occlusion.StaticGraph) []bool {
	out := s.inner.Step(t, frame)
	if len(out) == s.users {
		s.sets.Add(1)
	}
	return out
}

// wrapPrimary returns rec wrapped in a timedRec, or an error when rec cannot
// batch (the fused serving path would then never run).
func wrapPrimary(rec sim.Recommender, log *stepLog) (sim.Recommender, error) {
	br, ok := rec.(sim.BatchRecommender)
	if !ok {
		return nil, fmt.Errorf("primary %s is not a sim.BatchRecommender", rec.Name())
	}
	return timedRec{BatchRecommender: br, log: log}, nil
}
