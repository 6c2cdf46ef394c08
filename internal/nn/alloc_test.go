//go:build !race

package nn

import (
	"runtime"
	"testing"
)

// TestTrainBPTTWarmWindowBytes pins what one BPTT window allocates once its
// optimizer's arena is warm. Every value, gradient and backward temporary
// of the window's graph then comes from the arena. What is left is the
// graph's nodes and closures, the input wrappers, and two 200×8 states of
// 12.8 kB each: the zero state the episode starts from and the state cut
// detaches. On go1.24 that is 44 kB in about 400 objects; without the
// arena the same window allocates about 3 MB. The bound leaves a third of
// headroom. It runs without the race detector, whose instrumentation
// allocates.
func TestTrainBPTTWarmWindowBytes(t *testing.T) {
	const n, window = 200, 4
	net := newBPTTNet(5, n, window)
	for i := 0; i < 2; i++ {
		if err := net.episode(window, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := net.episode(window, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one warm window allocates %d bytes in %d objects", got, after.Mallocs-before.Mallocs)
	if limit := uint64(64 << 10); got > limit {
		t.Errorf("one warm window allocates %d bytes, want at most %d", got, limit)
	}
}
