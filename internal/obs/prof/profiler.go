package prof

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/obs"
)

// Options configures the continuous profiler.
type Options struct {
	// Window is the length of one CPU-profile window. Zero or less ends a
	// window only at Rotate, Reset or Stop, so one window can cover a whole
	// experiment.
	Window time.Duration
}

// Profiler runs the continuous profile loop: back-to-back CPU-profile
// windows, of which it keeps the last raw one. Its samples carry the phase,
// rec and room labels, so `go tool pprof -tags` on it prints the per-label
// CPU tables. Create with Start; a nil *Profiler no-ops on every method so
// call sites can hold one unconditionally.
type Profiler struct {
	opt Options

	mu     sync.Mutex
	lastPB []byte // last finished window (gzipped protobuf); nil if it was skipped

	ctl  chan ctlMsg
	done chan struct{}
}

type ctlMsg struct {
	reset bool        // drop the cut window instead of keeping it
	quit  bool        // end the loop after cutting the window
	ack   chan []byte // receives the cut window (nil if it was skipped)
}

// Counter handles cached at package level so registry Reset keeps them valid.
var (
	obsWindows   = obs.Default().Counter("prof.windows")
	obsSkipped   = obs.Default().Counter("prof.skipped_windows")
	obsIncidents = obs.Default().Counter("prof.watchdog_incidents")
)

// running is the profiler that holds the process's one CPU-profile slot, so
// the watchdog can copy its live window into incident bundles. Nil when no
// profiler runs.
var running atomic.Pointer[Profiler]

// Start enables the label gate and launches the windowed profile loop.
func Start(opt Options) *Profiler {
	SetEnabled(true)
	p := &Profiler{
		opt:  opt,
		ctl:  make(chan ctlMsg),
		done: make(chan struct{}),
	}
	running.Store(p)
	go p.run()
	return p
}

// run is the window loop. Only one CPU profile may be active per process, so
// a StartCPUProfile failure (a live /debug/pprof/profile scrape holds the
// slot) skips the window rather than erroring: continuous profiling is a
// background concern and must never fight the foreground.
func (p *Profiler) run() {
	defer close(p.done)
	for {
		var buf bytes.Buffer
		active := pprof.StartCPUProfile(&buf) == nil
		if !active {
			obsSkipped.Inc()
		}
		var timer *time.Timer
		var tick <-chan time.Time // nil with Window <= 0: only ctl ends the window
		if p.opt.Window > 0 {
			timer = time.NewTimer(p.opt.Window)
			tick = timer.C
		}
		var msg ctlMsg
		select {
		case <-tick:
		case msg = <-p.ctl:
			if timer != nil {
				timer.Stop()
			}
		}
		var pb []byte
		if active {
			pprof.StopCPUProfile()
			pb = buf.Bytes()
			obsWindows.Inc()
		}
		if msg.reset {
			pb = nil
		}
		p.mu.Lock()
		p.lastPB = pb
		p.mu.Unlock()
		if msg.ack != nil {
			msg.ack <- pb
		}
		if msg.quit {
			return
		}
	}
}

// Rotate synchronously cuts the live window, so WriteLastProfile right after
// covers all CPU up to now. No-op on nil or after Stop.
func (p *Profiler) Rotate() { p.control(ctlMsg{}) }

// Reset cuts the live window and drops it, starting fresh: aftersim calls
// this before each experiment so each cpu_<exp>.pb.gz covers exactly one run.
func (p *Profiler) Reset() { p.control(ctlMsg{reset: true}) }

// Stop cuts the live window, keeps it, and terminates the loop.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.control(ctlMsg{quit: true})
	<-p.done
	running.CompareAndSwap(p, nil)
}

// control sends msg to the loop and returns the window it cut (nil on a nil
// or stopped profiler, or when the window was skipped).
func (p *Profiler) control(msg ctlMsg) []byte {
	if p == nil {
		return nil
	}
	msg.ack = make(chan []byte, 1)
	select {
	case p.ctl <- msg:
		return <-msg.ack
	case <-p.done:
		return nil
	}
}

// WriteLastProfile writes the most recent raw CPU profile window (gzipped
// pprof protobuf, labels included, loadable by `go tool pprof`) to path.
// Returns an error when no window has completed yet.
func (p *Profiler) WriteLastProfile(path string) error {
	if p == nil {
		return fmt.Errorf("prof: profiler not running")
	}
	p.mu.Lock()
	pb := p.lastPB
	p.mu.Unlock()
	if len(pb) == 0 {
		return fmt.Errorf("prof: no completed profile window")
	}
	return obs.WriteFileAtomic(path, pb)
}
