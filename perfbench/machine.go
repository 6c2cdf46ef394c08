package main

import (
	"bufio"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// machineInfo is recorded in every result so figures from different hosts
// are never compared blind.
type machineInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func readMachine() machineInfo {
	return machineInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; "unknown"
// where the file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is the process's CPU time so far and its peak resident set size.
func usage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in KiB.
	return cpu, float64(ru.Maxrss) / 1024
}

func cpuNow() time.Duration {
	cpu, _ := usage()
	return cpu
}

// mark is the process CPU time at one instant.
type mark struct {
	at  int64 // ns since epoch
	cpu time.Duration
}

func markNow() mark { return mark{at: nanos(time.Now()), cpu: cpuNow()} }

// startMarks records a mark now and one every period until the returned
// stop function is called, which records a last mark, waits for the
// sampling goroutine to end and returns the marks in time order.
func startMarks(period time.Duration) (stop func() []mark) {
	marks := []mark{markNow()}
	done := make(chan struct{})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, markNow())
			case <-done:
				return
			}
		}
	}()
	return func() []mark {
		close(done)
		<-ended
		return append(marks, markNow())
	}
}

// runtimeSample holds the runtime/metrics counters the runtime layer reports
// as deltas over the measured window.
type runtimeSample struct {
	allocObjects, allocBytes, gcCycles uint64
	pauses                             *rtmetrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		pauses:       s[3].Value.Float64Histogram(),
	}
}

// runtimeDelta is the runtime layer's work over the window, per op.
type runtimeDelta struct {
	AllocsPerOp    float64 `json:"allocs_per_op"`
	AllocKBPerOp   float64 `json:"alloc_kb_per_op"`
	GCPerKop       float64 `json:"gc_per_kop"`
	GCPauseP99Ms   float64 `json:"gc_pause_p99_ms"`
	GCCycles       uint64  `json:"gc_cycles"`
	GCPauseSamples uint64  `json:"gc_pause_samples"`
}

func diffRuntime(a, b runtimeSample, ops int64) runtimeDelta {
	n := float64(max(ops, 1))
	d := runtimeDelta{
		AllocsPerOp:  float64(b.allocObjects-a.allocObjects) / n,
		AllocKBPerOp: float64(b.allocBytes-a.allocBytes) / 1024 / n,
		GCPerKop:     float64(b.gcCycles-a.gcCycles) * 1000 / n,
		GCCycles:     b.gcCycles - a.gcCycles,
	}
	// The pause histogram's buckets are fixed for the process, so the
	// window's pauses are the per-bucket count differences.
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	d.GCPauseSamples = total
	if total == 0 {
		return d
	}
	rank := uint64(float64(total)*0.99 + 0.999999)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			// Report the bucket's upper edge (its lower edge when the upper
			// one is +Inf).
			hi := b.pauses.Buckets[i+1]
			if hi > 1e9 {
				hi = b.pauses.Buckets[i]
			}
			d.GCPauseP99Ms = hi * 1000
			break
		}
	}
	return d
}
