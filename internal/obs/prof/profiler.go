package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"after/internal/obs"
)

// Options configures the continuous profiler.
type Options struct {
	// Window is the length of one CPU-profile window. Shorter windows
	// attribute faster but cost more stop/parse cycles; default 10s.
	Window time.Duration
	// Registry receives the live prof.* gauges (CPU-seconds per phase,
	// labeled fraction). Defaults to obs.Default(). Gauge writes obey the obs
	// enable gate, so profiling can run with metrics off and still produce
	// PROF_<exp>.json summaries.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// Summary is the per-label CPU attribution written to PROF_<exp>.json and
// rendered by the report's continuous-profiling section. Symbol-level views
// (top, flame, diff) are `go tool pprof`'s job on the raw windows.
type Summary struct {
	Timestamp       string             `json:"timestamp"`
	WindowSeconds   float64            `json:"window_s"`
	Windows         int                `json:"windows"`
	SkippedWindows  int                `json:"skipped_windows,omitempty"`
	CPUSeconds      float64            `json:"cpu_s"`
	LabeledSeconds  float64            `json:"labeled_s"`
	LabeledFraction float64            `json:"labeled_fraction"`
	ByPhase         map[string]float64 `json:"by_phase,omitempty"`
	ByRec           map[string]float64 `json:"by_rec,omitempty"`
	ByRoom          map[string]float64 `json:"by_room,omitempty"`
}

// aggregate is the profiler's running fold over finished windows. All ns.
type aggregate struct {
	windows, skipped int
	cpuNs, labeledNs int64
	byPhase          map[string]int64
	byRec            map[string]int64
	byRoom           map[string]int64
}

func newAggregate() aggregate {
	return aggregate{
		byPhase: map[string]int64{},
		byRec:   map[string]int64{},
		byRoom:  map[string]int64{},
	}
}

// Profiler runs the continuous profile loop. Create with Start; a nil
// *Profiler no-ops on every method so call sites can hold one unconditionally.
type Profiler struct {
	opt Options

	mu      sync.Mutex
	agg     aggregate
	lastPB  []byte // most recent raw CPU profile window (gzipped protobuf)
	stopped bool

	ctl  chan ctlMsg
	done chan struct{}
}

type ctlMsg struct {
	reset bool // clear the aggregate after folding the live window
	ack   chan struct{}
	quit  bool
}

// Gauge handles cached at package level so registry Reset keeps them valid.
var (
	obsWindows   = obs.Default().Counter("prof.windows")
	obsSkipped   = obs.Default().Counter("prof.skipped_windows")
	obsIncidents = obs.Default().Counter("prof.watchdog_incidents")
)

// Start enables the label gate and launches the windowed profile loop.
func Start(opt Options) *Profiler {
	opt = opt.withDefaults()
	SetEnabled(true)
	p := &Profiler{
		opt:  opt,
		agg:  newAggregate(),
		ctl:  make(chan ctlMsg),
		done: make(chan struct{}),
	}
	go p.run()
	return p
}

// run is the window loop. Only one CPU profile may be active per process, so
// a StartCPUProfile failure (a -cpuprofile flag or a live /debug/pprof/profile
// scrape holds the slot) skips the window rather than erroring: continuous
// profiling is a background concern and must never fight the foreground.
func (p *Profiler) run() {
	defer close(p.done)
	for {
		var buf bytes.Buffer
		active := pprof.StartCPUProfile(&buf) == nil
		if !active {
			p.mu.Lock()
			p.agg.skipped++
			p.mu.Unlock()
			obsSkipped.Inc()
		}
		timer := time.NewTimer(p.opt.Window)
		var msg ctlMsg
		select {
		case <-timer.C:
		case msg = <-p.ctl:
			timer.Stop()
		}
		if active {
			pprof.StopCPUProfile()
			p.foldWindow(buf.Bytes())
		}
		if msg.reset {
			p.mu.Lock()
			p.agg = newAggregate()
			p.lastPB = nil
			p.mu.Unlock()
		}
		if msg.ack != nil {
			close(msg.ack)
		}
		if msg.quit {
			return
		}
	}
}

// foldWindow parses one finished CPU window, folds its samples into the
// aggregate by label, keeps the raw window, and refreshes the live gauges.
func (p *Profiler) foldWindow(pb []byte) {
	prof, err := ParseProfile(pb)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastPB = pb
	p.agg.windows++
	if err == nil {
		foldCPU(&p.agg, prof)
	}
	p.publishGauges()
	obsWindows.Inc()
}

// foldCPU adds one parsed CPU profile's samples to agg by their phase, rec
// and room labels.
func foldCPU(agg *aggregate, prof *Profile) {
	vi := prof.ValueIndex("cpu", "nanoseconds")
	if vi < 0 {
		vi = len(prof.SampleType) - 1
	}
	for _, s := range prof.Samples {
		if vi >= len(s.Value) {
			continue
		}
		ns := s.Value[vi]
		if ns <= 0 {
			continue
		}
		agg.cpuNs += ns
		if phase := s.Label["phase"]; phase != "" {
			agg.labeledNs += ns
			agg.byPhase[phase] += ns
		}
		if rec := s.Label["rec"]; rec != "" {
			agg.byRec[rec] += ns
		}
		if room := s.Label["room"]; room != "" {
			agg.byRoom[room] += ns
		}
	}
}

// publishGauges refreshes the live prof.* gauges from the aggregate.
// Called with p.mu held.
func (p *Profiler) publishGauges() {
	reg := p.opt.Registry
	reg.Gauge("prof.cpu_seconds_total").Set(float64(p.agg.cpuNs) / 1e9)
	if p.agg.cpuNs > 0 {
		reg.Gauge("prof.labeled_fraction").Set(float64(p.agg.labeledNs) / float64(p.agg.cpuNs))
	}
	for phase, ns := range p.agg.byPhase {
		reg.Gauge(obs.Label("prof.cpu_seconds", "phase", phase)).Set(float64(ns) / 1e9)
	}
	for rec, ns := range p.agg.byRec {
		reg.Gauge(obs.Label("prof.cpu_seconds", "rec", rec)).Set(float64(ns) / 1e9)
	}
}

// Rotate synchronously cuts the live window and folds it into the aggregate,
// so a Snapshot taken immediately after covers all CPU up to now. No-op on
// nil or after Stop.
func (p *Profiler) Rotate() { p.control(ctlMsg{}) }

// Reset cuts the live window, discards the aggregate, and starts fresh —
// aftersim calls this between experiments so each PROF_<exp>.json covers
// exactly one run (mirroring registry Reset for OBS snapshots).
func (p *Profiler) Reset() { p.control(ctlMsg{reset: true}) }

// Stop cuts the live window, folds it, and terminates the loop.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	ack := make(chan struct{})
	p.ctl <- ctlMsg{quit: true, ack: ack}
	<-ack
	<-p.done
}

func (p *Profiler) control(msg ctlMsg) {
	if p == nil {
		return
	}
	p.mu.Lock()
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return
	}
	msg.ack = make(chan struct{})
	p.ctl <- msg
	<-msg.ack
}

// Snapshot renders the aggregate as a Summary. Safe on nil (zero Summary).
func (p *Profiler) Snapshot() Summary {
	if p == nil {
		return Summary{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Summary{
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		WindowSeconds:  p.opt.Window.Seconds(),
		Windows:        p.agg.windows,
		SkippedWindows: p.agg.skipped,
		CPUSeconds:     float64(p.agg.cpuNs) / 1e9,
		LabeledSeconds: float64(p.agg.labeledNs) / 1e9,
		ByPhase:        secondsMap(p.agg.byPhase),
		ByRec:          secondsMap(p.agg.byRec),
		ByRoom:         secondsMap(p.agg.byRoom),
	}
	if p.agg.cpuNs > 0 {
		s.LabeledFraction = float64(p.agg.labeledNs) / float64(p.agg.cpuNs)
	}
	return s
}

func secondsMap(ns map[string]int64) map[string]float64 {
	if len(ns) == 0 {
		return nil
	}
	out := make(map[string]float64, len(ns))
	for k, v := range ns {
		out[k] = float64(v) / 1e9
	}
	return out
}

// FormatPhases renders the per-label CPU-seconds tables (phase, then rec).
func FormatPhases(s Summary) string {
	var b strings.Builder
	writeMap := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
		fmt.Fprintf(&b, "%s:\n", title)
		for _, k := range keys {
			var share float64
			if s.CPUSeconds > 0 {
				share = 100 * m[k] / s.CPUSeconds
			}
			fmt.Fprintf(&b, "  %-20s %9.3fs %6.1f%%\n", k, m[k], share)
		}
	}
	writeMap("cpu by phase", s.ByPhase)
	writeMap("cpu by recommender", s.ByRec)
	return b.String()
}

// WriteJSON writes the current Summary to path atomically (the PROF_<exp>.json
// artifact). No-op nil error on a nil profiler.
func (p *Profiler) WriteJSON(path string) error {
	if p == nil {
		return nil
	}
	data, err := json.MarshalIndent(p.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, append(data, '\n'))
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
