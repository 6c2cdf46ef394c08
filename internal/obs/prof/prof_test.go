package prof

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
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

// TestParseProfileLive profiles a labeled CPU burn in-process and checks the
// hand-rolled parser recovers sample types, stacks, and labels from the real
// runtime encoding — the format the whole package depends on.
func TestParseProfileLive(t *testing.T) {
	if testing.Short() {
		t.Skip("cpu profiling skipped in -short")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile slot busy: %v", err)
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("phase", "testburn"))
	pprof.SetGoroutineLabels(ctx)
	burn(400 * time.Millisecond)
	pprof.SetGoroutineLabels(context.Background())
	pprof.StopCPUProfile()

	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if p.ValueIndex("cpu", "nanoseconds") < 0 {
		t.Fatalf("no cpu/nanoseconds sample type: %+v", p.SampleType)
	}
	if len(p.Samples) == 0 {
		t.Skip("no samples collected (starved CI runner)")
	}
	var labeled, withStack int
	for _, s := range p.Samples {
		if len(s.Stack) > 0 {
			withStack++
		}
		if s.Label["phase"] == "testburn" {
			labeled++
		}
	}
	if withStack == 0 {
		t.Error("no sample resolved to a function stack")
	}
	if labeled == 0 {
		t.Error("no sample carried the phase label set during the burn")
	}
	t.Logf("samples=%d labeled=%d stacks=%d", len(p.Samples), labeled, withStack)
}

// TestProfilerWindowLoop runs the continuous profiler over a labeled burn and
// checks Rotate/Snapshot/Reset/WriteJSON semantics plus the live gauges.
func TestProfilerWindowLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("cpu profiling skipped in -short")
	}
	prevE := SetEnabled(true)
	prevO := obs.SetEnabled(true)
	defer func() {
		SetEnabled(prevE)
		obs.SetEnabled(prevO)
	}()
	reg := obs.NewRegistry()
	p := Start(Options{Window: 50 * time.Millisecond, Registry: reg})
	defer p.Stop()

	ls := NewLabels("room0", "POSHGNN")
	ls.Set(PhaseLWP)
	burn(400 * time.Millisecond)
	Clear()

	p.Rotate()
	sum := p.Snapshot()
	if sum.Windows == 0 && sum.SkippedWindows == 0 {
		t.Fatal("no windows completed")
	}
	if sum.CPUSeconds == 0 {
		t.Skip("no samples collected (starved CI runner)")
	}
	if sum.ByPhase["lwp"] == 0 {
		t.Errorf("no CPU attributed to phase=lwp: %+v", sum.ByPhase)
	}
	if sum.ByRec["POSHGNN"] == 0 {
		t.Errorf("no CPU attributed to rec=POSHGNN: %+v", sum.ByRec)
	}
	if sum.ByRoom["room0"] == 0 {
		t.Errorf("no CPU attributed to room=room0: %+v", sum.ByRoom)
	}
	if sum.LabeledFraction < 0.5 {
		t.Errorf("labeled fraction %.2f, want most of the burn labeled", sum.LabeledFraction)
	}
	if reg.Snapshot().Gauges["prof.cpu_seconds_total"] == 0 {
		t.Error("prof.cpu_seconds_total gauge not published")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "PROF_test.json")
	if err := p.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"by_phase"`)) {
		t.Errorf("summary json missing by_phase: %s", data)
	}
	if err := p.WriteLastProfile(filepath.Join(dir, "cpu.pb.gz")); err != nil {
		t.Errorf("WriteLastProfile: %v", err)
	}

	p.Reset()
	if got := p.Snapshot(); got.CPUSeconds != 0 || got.Windows != 0 {
		t.Errorf("Reset left residue: windows=%d cpu=%.3f", got.Windows, got.CPUSeconds)
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

// TestWalkFieldsMalformed checks the proto walker rejects truncated input
// instead of panicking or looping.
func TestWalkFieldsMalformed(t *testing.T) {
	cases := [][]byte{
		{0x0a},             // length-delimited tag, missing length
		{0x0a, 0x05, 0x01}, // declared length 5, 1 byte present
		{0x08},             // varint tag, missing value
		{0x80},             // unterminated tag varint
	}
	for i, data := range cases {
		if _, err := parseProfileRaw(data); err == nil {
			t.Errorf("case %d: malformed input parsed without error", i)
		}
	}
	if _, err := parseProfileRaw(nil); err != nil {
		t.Errorf("empty profile should parse to empty: %v", err)
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
