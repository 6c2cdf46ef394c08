package parallel

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"after/internal/obs/prof"
	"after/internal/obs/prof/proftest"
)

// TestForEachLabelInheritance pins the mechanism the profiling layer's
// parallel attribution rests on: pool workers are spawned per fan-out, so
// they inherit the caller's pprof labels at the go statement. If the pool
// ever switches to persistent workers this test fails, flagging that labels
// must then be threaded explicitly.
func TestForEachLabelInheritance(t *testing.T) {
	prev := prof.SetEnabled(true)
	defer func() {
		prof.Clear()
		prof.SetEnabled(prev)
	}()
	ls := prof.NewLabels("roomX", "POSHGNN")
	ls.Set(prof.PhaseBatch)

	const workers = 4
	var arrived atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	checked := make(chan error, 1)

	go func() {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			close(release)
			checked <- nil
			return
		}
		// All workers are parked in fn with whatever labels they inherited;
		// a goroutine profile reports each blocked goroutine's label set.
		gs, err := proftest.Goroutines()
		close(release)
		if err != nil {
			checked <- err
			return
		}
		var labeled, unlabeled int
		for _, g := range gs {
			if !strings.Contains(g.Stack, "TestForEachLabelInheritance") {
				continue
			}
			if g.Labels["room"] == "roomX" && g.Labels["phase"] == "batch" {
				labeled += g.Count
			} else {
				unlabeled += g.Count
			}
		}
		// The checker goroutine itself and the blocked caller also match the
		// test-name filter and are labeled too; require every matching
		// goroutine to carry the labels (the checker inherited them as well).
		if labeled < workers {
			t.Errorf("only %d labeled worker goroutines (want >= %d); %d unlabeled", labeled, workers, unlabeled)
		}
		checked <- nil
	}()

	ForEachN(workers, workers, func(i int) {
		if arrived.Add(1) == workers {
			close(started)
		}
		<-release
	})
	if err := <-checked; err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}
}
