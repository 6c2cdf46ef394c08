package prof

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"after/internal/obs"
)

// burn spins the CPU for roughly d so profile windows collect samples.
// Returned value defeats dead-code elimination.
func burn(d time.Duration) float64 {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 10_000; i++ {
			x = x*1.000000001 + 0.000001
		}
	}
	return x
}

// TestProfilerWindowLoop checks when windows end: with Window 0 only Rotate,
// Reset and Stop cut one (Reset drops it), and with a Window the loop cuts
// its own.
func TestProfilerWindowLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("cpu profiling skipped in -short")
	}
	defer SetEnabled(On())
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")

	p := Start(Options{})
	defer p.Stop()
	burn(50 * time.Millisecond)
	if err := p.WriteLastProfile(path); err == nil {
		t.Fatal("a Window-0 profiler ended a window before Rotate")
	}
	p.Rotate()
	if err := p.WriteLastProfile(path); err != nil {
		t.Fatalf("WriteLastProfile after Rotate: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Errorf("last window is not a gzipped profile: % x", data[:min(len(data), 4)])
	}
	p.Reset()
	if err := p.WriteLastProfile(path); err == nil {
		t.Error("Reset kept the window it cut")
	}
	p.Stop()

	timed := Start(Options{Window: 20 * time.Millisecond})
	defer timed.Stop()
	for deadline := time.Now().Add(5 * time.Second); timed.WriteLastProfile(path) != nil; {
		if time.Now().After(deadline) {
			t.Fatal("a 20ms-window profiler finished no window in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProfDisabledOverheadBudget extends the obs opt-in-cheap contract to
// label application: with the gate off, Labels.Set and Clear must stay a
// load-and-branch — same 25ns budget as obs's disabled record path.
func TestProfDisabledOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates atomic ops ~40x; the budget only holds uninstrumented")
	}
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	ls := NewLabels("room0", "POSHGNN")
	var nilLs *Labels
	cases := []struct {
		name string
		fn   func()
	}{
		{"set", func() { ls.Set(PhaseMIA) }},
		{"set-nil", func() { nilLs.Set(PhaseMIA) }},
		{"clear", Clear},
	}
	const budget = 25 * time.Nanosecond
	for _, tc := range cases {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.fn()
			}
		})
		perOp := time.Duration(res.NsPerOp())
		t.Logf("disabled %s: %v/op (%d iters)", tc.name, perOp, res.N)
		if perOp > budget {
			t.Errorf("disabled %s costs %v/op, budget %v", tc.name, perOp, budget)
		}
		if res.AllocsPerOp() != 0 {
			t.Errorf("disabled %s allocates (%d allocs/op)", tc.name, res.AllocsPerOp())
		}
	}
}

// TestWatchdogIncidentBundle arms a tiny budget, lets it stall, and checks
// the bundle lands with all artifacts; then checks a disarmed item never
// fires.
func TestWatchdogIncidentBundle(t *testing.T) {
	dir := t.TempDir()
	fired := make(chan Incident, 1)
	w := NewWatchdog(WatchdogConfig{
		Multiple:    2,
		Dir:         dir,
		CheckEvery:  10 * time.Millisecond,
		ProfileFor:  30 * time.Millisecond,
		MinInterval: time.Millisecond,
		RecentEvents: func() [][]byte {
			return [][]byte{[]byte(`{"event":"one"}`), []byte(`{"event":"two"}`)}
		},
		OnIncident: func(inc Incident) { fired <- inc },
	})
	defer w.Close()

	tok := w.Arm("batch:room0", 5*time.Millisecond)
	var inc Incident
	select {
	case inc = <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
	w.Disarm(tok)
	if inc.Name != "batch:room0" {
		t.Errorf("incident name = %q", inc.Name)
	}
	if inc.Dir == "" {
		t.Fatal("incident bundle not written")
	}
	for _, f := range []string{"stall.txt", "goroutines.txt", "events.jsonl"} {
		data, err := os.ReadFile(filepath.Join(inc.Dir, f))
		if err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("bundle %s is empty", f)
		}
	}
	st, _ := os.ReadFile(filepath.Join(inc.Dir, "stall.txt"))
	if !bytes.Contains(st, []byte("batch:room0")) {
		t.Errorf("stall.txt does not name the stalled item: %s", st)
	}
	ev, _ := os.ReadFile(filepath.Join(inc.Dir, "events.jsonl"))
	if got := strings.Count(string(ev), "\n"); got != 2 {
		t.Errorf("events.jsonl has %d lines, want 2", got)
	}

	// A disarmed item must not fire.
	tok2 := w.Arm("batch:room1", 20*time.Millisecond)
	w.Disarm(tok2)
	select {
	case inc := <-fired:
		t.Errorf("disarmed item fired: %+v", inc)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestWatchdogBundleWithProfiler: while the continuous profiler holds the
// process's one CPU-profile slot, the bundle still gets a cpu.pb.gz, cut
// from the profiler's live window.
func TestWatchdogBundleWithProfiler(t *testing.T) {
	if testing.Short() {
		t.Skip("cpu profiling skipped in -short")
	}
	defer SetEnabled(On())
	p := Start(Options{Window: 10 * time.Second})
	defer p.Stop()
	fired := make(chan Incident, 1)
	w := NewWatchdog(WatchdogConfig{
		Multiple:    2,
		Dir:         t.TempDir(),
		CheckEvery:  10 * time.Millisecond,
		MinInterval: time.Millisecond,
		OnIncident:  func(inc Incident) { fired <- inc },
	})
	defer w.Close()

	w.Arm("batch:room0", 5*time.Millisecond)
	var inc Incident
	select {
	case inc = <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
	if inc.Dir == "" {
		t.Fatal("incident bundle not written")
	}
	if _, err := os.Stat(filepath.Join(inc.Dir, "cpu.pb.gz")); err != nil {
		st, _ := os.ReadFile(filepath.Join(inc.Dir, "stall.txt"))
		t.Errorf("bundle has no cpu.pb.gz under a running profiler: %v\n%s", err, st)
	}
}

// TestWatchdogRateLimit checks the MaxIncidents cap: stalls past the cap are
// still reported to OnIncident but write no bundle.
func TestWatchdogRateLimit(t *testing.T) {
	dir := t.TempDir()
	fired := make(chan Incident, 4)
	w := NewWatchdog(WatchdogConfig{
		Multiple:     2,
		Dir:          dir,
		CheckEvery:   10 * time.Millisecond,
		ProfileFor:   10 * time.Millisecond,
		MinInterval:  time.Millisecond,
		MaxIncidents: 1,
		OnIncident:   func(inc Incident) { fired <- inc },
	})
	defer w.Close()

	w.Arm("first", time.Millisecond)
	first := <-fired
	if first.Dir == "" {
		t.Fatal("first incident should write a bundle")
	}
	w.Arm("second", time.Millisecond)
	second := <-fired
	if second.Dir != "" {
		t.Errorf("second incident should be rate-limited, wrote %s", second.Dir)
	}
}

// TestCollectHealth samples the runtime into a fresh registry and checks the
// core gauges land with sane values.
func TestCollectHealth(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	reg := obs.NewRegistry()
	CollectHealth(reg)
	snap := reg.Snapshot()
	if snap.Gauges["health.goroutines"] < 1 {
		t.Errorf("health.goroutines = %v, want >= 1", snap.Gauges["health.goroutines"])
	}
	if snap.Gauges["health.heap_objects_bytes"] <= 0 {
		t.Errorf("health.heap_objects_bytes = %v, want > 0", snap.Gauges["health.heap_objects_bytes"])
	}
	if snap.Gauges["health.heap_goal_bytes"] <= 0 {
		t.Errorf("health.heap_goal_bytes = %v, want > 0", snap.Gauges["health.heap_goal_bytes"])
	}
}

// TestGCPauseDelta checks the delta quantile is bounded by the lifetime
// distribution and resets cleanly.
func TestGCPauseDelta(t *testing.T) {
	d := NewGCPauseDelta()
	if p := d.P99Seconds(); p != 0 {
		// GC may legitimately run between Reset and here; only assert sanity.
		if p < 0 || p > 10 {
			t.Errorf("implausible immediate delta p99: %v", p)
		}
	}
	for i := 0; i < 3; i++ {
		_ = make([]byte, 1<<20)
	}
	if p := d.P99Seconds(); p < 0 || p > 10 {
		t.Errorf("implausible delta p99: %v", p)
	}
}

// TestPhaseNames pins the label values to the tracer's span names.
func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseNone: "", PhaseBatch: "batch", PhaseMIA: "mia", PhasePDR: "pdr",
		PhaseLWP: "lwp", PhaseDecode: "decode", PhaseSpMM: "spmm",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("phase %d = %q, want %q", p, p.String(), name)
		}
	}
}
