package prof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog detects work items (batches, frames) that make no progress within
// a multiple of their declared budget and dumps an incident bundle — a
// goroutine dump, a CPU profile (the continuous profiler's live window when
// one runs), and the most recent wide events — to disk so a stalled afterd
// can be diagnosed post-mortem without a debugger attached at the moment of
// the stall.
//
// Usage: Arm before dispatching the work, Disarm when it completes. Both are
// nil-safe and cheap (one mutex op), so serving paths hold a *Watchdog
// unconditionally and leave it nil when disabled.

// WatchdogConfig configures stall detection and incident capture.
type WatchdogConfig struct {
	// Multiple scales each armed budget into a stall deadline: a work item
	// is stalled once now > armed + Multiple×budget. Default 8 — far enough
	// past the deadline-miss regime (which admission control and shedding
	// already handle) that firing means "stuck", not "slow".
	Multiple float64
	// Dir receives incident_<unixnano>/ bundles. Default ".".
	Dir string
	// MinInterval rate-limits bundle writes. Default 1 minute.
	MinInterval time.Duration
	// MaxIncidents caps bundles per process lifetime. Default 16.
	MaxIncidents int
	// CheckEvery is the scan period. Default 250ms.
	CheckEvery time.Duration
	// ProfileFor is the length of the incident CPU profile when no
	// continuous profiler runs (with one, the bundle gets its live window
	// instead). Default 250ms. Best-effort: when another CPU profile is
	// active (a /debug/pprof scrape) the incident records that instead of a
	// profile.
	ProfileFor time.Duration
	// RecentEvents, when set, supplies the most recent wide-event lines
	// (newest last) for the bundle's events.jsonl.
	RecentEvents func() [][]byte
	// OnIncident, when set, is called after each bundle is written (tests,
	// logging). Runs on the watchdog goroutine.
	OnIncident func(Incident)
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Multiple <= 0 {
		c.Multiple = 8
	}
	if c.Dir == "" {
		c.Dir = "."
	}
	if c.MinInterval <= 0 {
		c.MinInterval = time.Minute
	}
	if c.MaxIncidents <= 0 {
		c.MaxIncidents = 16
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 250 * time.Millisecond
	}
	if c.ProfileFor <= 0 {
		c.ProfileFor = 250 * time.Millisecond
	}
	return c
}

// Incident describes one detected stall.
type Incident struct {
	Name     string        // the armed work item's name
	Budget   time.Duration // its declared budget
	Stalled  time.Duration // how long past arming when detected
	Dir      string        // bundle directory ("" if the write failed)
	ArmedAt  time.Time
	Detected time.Time
}

// Token identifies one armed work item; the zero Token is a no-op Disarm.
type Token struct{ id uint64 }

type armed struct {
	name     string
	budget   time.Duration
	armedAt  time.Time
	deadline time.Time
	fired    bool
}

// Watchdog is the stall detector. Nil receivers no-op on every method.
type Watchdog struct {
	cfg WatchdogConfig

	mu        sync.Mutex
	items     map[uint64]*armed
	nextID    uint64
	lastFire  time.Time
	incidents int

	stop chan struct{}
	wg   sync.WaitGroup

	// closed guards double-Close.
	closed atomic.Bool
}

// NewWatchdog starts the checker goroutine.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		cfg:   cfg.withDefaults(),
		items: map[uint64]*armed{},
		stop:  make(chan struct{}),
	}
	w.wg.Add(1)
	go w.loop()
	return w
}

// Arm registers a work item with the given progress budget. budget <= 0
// disables detection for this item (returns the zero Token).
func (w *Watchdog) Arm(name string, budget time.Duration) Token {
	if w == nil || budget <= 0 {
		return Token{}
	}
	now := time.Now()
	stallAfter := time.Duration(float64(budget) * w.cfg.Multiple)
	w.mu.Lock()
	w.nextID++
	id := w.nextID
	w.items[id] = &armed{
		name:     name,
		budget:   budget,
		armedAt:  now,
		deadline: now.Add(stallAfter),
	}
	w.mu.Unlock()
	return Token{id: id}
}

// Disarm removes a previously armed item. Zero tokens no-op.
func (w *Watchdog) Disarm(t Token) {
	if w == nil || t.id == 0 {
		return
	}
	w.mu.Lock()
	delete(w.items, t.id)
	w.mu.Unlock()
}

// Close stops the checker. Armed items are abandoned without firing.
func (w *Watchdog) Close() {
	if w == nil || w.closed.Swap(true) {
		return
	}
	close(w.stop)
	w.wg.Wait()
}

func (w *Watchdog) loop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			w.check(now)
		}
	}
}

// check scans for stalled items and fires at most one incident per scan.
func (w *Watchdog) check(now time.Time) {
	w.mu.Lock()
	var hit *armed
	for _, it := range w.items {
		if !it.fired && now.After(it.deadline) {
			it.fired = true
			hit = it
			break
		}
	}
	if hit == nil {
		w.mu.Unlock()
		return
	}
	rateLimited := w.incidents >= w.cfg.MaxIncidents || now.Sub(w.lastFire) < w.cfg.MinInterval
	if !rateLimited {
		w.lastFire = now
		w.incidents++
	}
	w.mu.Unlock()

	obsIncidents.Inc()
	inc := Incident{
		Name:     hit.name,
		Budget:   hit.budget,
		Stalled:  now.Sub(hit.armedAt),
		ArmedAt:  hit.armedAt,
		Detected: now,
	}
	if !rateLimited {
		inc.Dir = w.writeBundle(inc)
	}
	if w.cfg.OnIncident != nil {
		w.cfg.OnIncident(inc)
	}
}

// writeBundle dumps the incident to cfg.Dir/incident_<unixnano>/ and returns
// the directory ("" on failure). Each artifact is best-effort: a failed CPU
// profile (slot already held) is recorded in stall.txt rather than aborting
// the bundle.
func (w *Watchdog) writeBundle(inc Incident) string {
	dir := filepath.Join(w.cfg.Dir, fmt.Sprintf("incident_%d", inc.Detected.UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}

	var profNote string
	if cpu, err := w.cpuProfile(); err != nil {
		profNote = fmt.Sprintf("cpu profile unavailable: %v", err)
	} else if err := os.WriteFile(filepath.Join(dir, "cpu.pb.gz"), cpu, 0o644); err != nil {
		profNote = fmt.Sprintf("cpu profile write failed: %v", err)
	}

	var g bytes.Buffer
	if lookup := pprof.Lookup("goroutine"); lookup != nil {
		_ = lookup.WriteTo(&g, 2)
	}
	_ = os.WriteFile(filepath.Join(dir, "goroutines.txt"), g.Bytes(), 0o644)

	if w.cfg.RecentEvents != nil {
		var ev bytes.Buffer
		for _, line := range w.cfg.RecentEvents() {
			ev.Write(line)
			if n := len(line); n == 0 || line[n-1] != '\n' {
				ev.WriteByte('\n')
			}
		}
		_ = os.WriteFile(filepath.Join(dir, "events.jsonl"), ev.Bytes(), 0o644)
	}

	var st bytes.Buffer
	fmt.Fprintf(&st, "stalled item: %s\n", inc.Name)
	fmt.Fprintf(&st, "budget:       %v\n", inc.Budget)
	fmt.Fprintf(&st, "stall mult:   %.1f\n", w.cfg.Multiple)
	fmt.Fprintf(&st, "armed at:     %s\n", inc.ArmedAt.UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(&st, "detected at:  %s (%v after arming)\n", inc.Detected.UTC().Format(time.RFC3339Nano), inc.Stalled)
	if profNote != "" {
		fmt.Fprintf(&st, "note:         %s\n", profNote)
	}
	_ = os.WriteFile(filepath.Join(dir, "stall.txt"), st.Bytes(), 0o644)
	return dir
}

// cpuProfile returns the bundle's CPU profile. The running continuous
// profiler holds the process's one profile slot, so its live window is cut
// and copied; without one (or when its window was skipped) the watchdog
// profiles ProfileFor itself.
func (w *Watchdog) cpuProfile() ([]byte, error) {
	if pb := running.Load().control(ctlMsg{}); pb != nil {
		return pb, nil
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	time.Sleep(w.cfg.ProfileFor)
	pprof.StopCPUProfile()
	return cpu.Bytes(), nil
}
