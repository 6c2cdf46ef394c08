package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"after/internal/baselines"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/exp"
	"after/internal/occlusion"
	"after/internal/parallel"
	"after/internal/serve"
	"after/internal/sim"
)

// servingSpec shapes a closed-loop serving workload: every room runs its own
// loop of one frame POST followed by one concurrent recommend request per
// target, and the next frame follows the last answer.
type servingSpec struct {
	name      string
	setupReps int
	rooms     int
	users     int
	targets   int     // recommend requests per frame and room
	moveShare float64 // share of users that move between two frames
	// deadlineMs is the budget each request asks for; 0 sends none, so the
	// server default applies.
	deadlineMs float64
	// rotateEvery > 0 moves each room to the next group of targets every
	// rotateEvery frames; 0 keeps the same targets for the whole run.
	rotateEvery int
	warmFrames  int // frames every room serves before the window opens
	distinct    int // distinct position frames, replayed back and forth
	// replayPairs (room, target) pairs per room are checked against a
	// sequential replay over their first replayFrames frames.
	replayPairs  int
	replayFrames int
	// propFrames is how many frames the input-property sample converts.
	propFrames int
	// traceEvery: the traced run replays conversion and sanitizing for
	// every traceEvery-th frame of the window.
	traceEvery int
}

// primaryScale is afterd's default -train-scale.
const primaryScale = 0.3

// renderCap is the model's cap on rendered-set size.
var renderCap = core.DefaultConfig().MaxRender

// call sends one in-memory HTTP request through the handler.
func call(h http.Handler, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// reqRecord is one recommend request as the client saw it.
type reqRecord struct {
	room, k, target int
	iv              interval
	status          int
	fresh           bool // 200, fresh, and served by the primary
	fused           bool
	batch           int
	queueMs         float64
}

// frameRecord is one turn of a room's loop.
type frameRecord struct {
	post interval // the frame POST
	tick interval // frame POST start to the last answer
}

// servingRig is one booted server with its rooms.
type servingRig struct {
	sp      servingSpec
	ins     []*roomInput
	srv     *serve.Server
	h       http.Handler
	primary sim.Recommender // as exp.ServePrimary returned it
	// steps logs the fused steps in traced runs; the n-th fused session
	// serves the n-th room.
	steps  *stepLog
	trainS float64
	roomS  []float64

	// sample is the set of (room, target) pairs the replay check covers;
	// answers holds their fresh rendered sets by (room, target, frame), and
	// stale marks pairs with an answer that was not fresh.
	sample map[[2]int]bool

	mu sync.Mutex
	// reqs is the request log. During a loop it is the chunk being filled
	// and full chunks wait in chunks, so the client's memory grows in even
	// steps: slice doubling would put a copy of the whole log on the heap
	// at moments that move the run's peak RSS. flatten joins them once the
	// window is over.
	reqs    []reqRecord
	chunks  [][]reqRecord
	frames  []frameRecord
	invalid []string // output-check violations
	answers map[[3]int][]int
	stale   map[[2]int]bool
}

// setupServing trains the primary, boots the server, creates the rooms
// through the API and warms every room up.
func setupServing(sp servingSpec, ins []*roomInput, traced bool, tel *telemetry) (*servingRig, error) {
	t0 := time.Now()
	primary, err := exp.ServePrimary(exp.Options{Scale: primaryScale})
	if err != nil {
		return nil, fmt.Errorf("train primary: %w", err)
	}
	rig := &servingRig{sp: sp, ins: ins, primary: primary, trainS: time.Since(t0).Seconds()}
	served := primary
	if traced {
		rig.steps = &stepLog{}
		if served, err = wrapPrimary(primary, rig.steps); err != nil {
			return nil, err
		}
	}
	// Every tunable stays at its zero value, which serve.Config documents as
	// the same default afterd's flags carry.
	rig.srv = serve.New(serve.Config{
		Primary:   served,
		Fallbacks: []sim.Recommender{baselines.Nearest{}},
		Watchdog:  tel.watchdog,
		Profiler:  tel.profiler,
	})
	rig.h = rig.srv.Handler()
	rig.sample, rig.answers, rig.stale = map[[2]int]bool{}, map[[3]int][]int{}, map[[2]int]bool{}
	for r, in := range ins {
		body, err := json.Marshal(in.spec)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		code, resp, err := call(rig.h, "POST", "/v1/rooms", body)
		if err != nil || code != http.StatusCreated {
			return nil, fmt.Errorf("create room %s: %d %s %v", in.id, code, resp, err)
		}
		rig.roomS = append(rig.roomS, time.Since(t).Seconds())
		targets := targetsAt(sp, in, 0)
		for j := 0; j < sp.replayPairs; j++ {
			rig.sample[[2]int{r, targets[j*len(targets)/sp.replayPairs]}] = true
		}
	}
	// Rooms take their first frame one at a time, so in a traced run the
	// n-th fused session belongs to the n-th room.
	for r := range ins {
		rig.turn(r, 0)
		if traced {
			if n := rig.steps.numSessions(); n != r+1 {
				return nil, fmt.Errorf("room %s: %d fused sessions after its first frame, want %d", ins[r].id, n, r+1)
			}
		}
	}
	rig.loop(1, time.Time{}, sp.warmFrames)
	rig.mu.Lock()
	rig.reqs, rig.chunks, rig.frames = nil, nil, rig.frames[:0]
	rig.mu.Unlock()
	return rig, nil
}

func (rig *servingRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rig.srv.Drain(ctx); err != nil {
		warnf("drain: %v", err)
	}
}

// loop runs every room's closed loop from frame k0 until the deadline passes
// (or, with a zero deadline, until frame kEnd) and returns the next frame
// index of each room.
func (rig *servingRig) loop(k0 int, until time.Time, kEnd int) []int {
	next := make([]int, len(rig.ins))
	var wg sync.WaitGroup
	for r := range rig.ins {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			k := k0
			for ; until.IsZero() && k < kEnd || !until.IsZero() && time.Now().Before(until); k++ {
				rig.turn(r, k)
			}
			next[r] = k
		}(r)
	}
	wg.Wait()
	return next
}

// turn posts frame k to room r, then one concurrent recommend request per
// target, and returns when the last answer is in.
func (rig *servingRig) turn(r, k int) {
	in := rig.ins[r]
	start := time.Now()
	code, resp, err := call(rig.h, "POST", "/v1/rooms/"+in.id+"/frames", in.frameBody(k))
	postEnd := time.Now()
	var ack serve.FrameAck
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &ack) != nil || !ack.Applied {
		rig.violation("room %s frame %d not applied: %d %s %v", in.id, k, code, resp, err)
	}
	targets := targetsAt(rig.sp, in, k)
	recs := make([]reqRecord, len(targets))
	var wg sync.WaitGroup
	for j, target := range targets {
		wg.Add(1)
		go func(j, target int) {
			defer wg.Done()
			recs[j] = rig.recommend(r, k, target)
		}(j, target)
	}
	wg.Wait()
	post := interval{nanos(start), nanos(postEnd)}
	tick := post
	for _, rc := range recs {
		tick.end = max(tick.end, rc.iv.end)
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	rig.frames = append(rig.frames, frameRecord{post: post, tick: tick})
	if len(rig.reqs)+len(recs) > cap(rig.reqs) {
		if len(rig.reqs) > 0 {
			rig.chunks = append(rig.chunks, rig.reqs)
		}
		rig.reqs = make([]reqRecord, 0, max(reqChunk, len(recs)))
	}
	rig.reqs = append(rig.reqs, recs...)
}

// reqChunk is how many request records one chunk of the log holds.
const reqChunk = 4096

// flatten joins the request log's chunks into rig.reqs.
func (rig *servingRig) flatten() {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	n := len(rig.reqs)
	for _, c := range rig.chunks {
		n += len(c)
	}
	all := make([]reqRecord, 0, n)
	for _, c := range rig.chunks {
		all = append(all, c...)
	}
	rig.reqs, rig.chunks = append(all, rig.reqs...), nil
}

// recommend sends one request and checks its answer.
func (rig *servingRig) recommend(r, k, target int) reqRecord {
	in := rig.ins[r]
	start := time.Now()
	code, resp, err := call(rig.h, "POST", "/v1/rooms/"+in.id+"/recommend", in.recs[target])
	end := time.Now()
	rc := reqRecord{room: r, k: k, target: target, iv: interval{nanos(start), nanos(end)}, status: code}
	if err != nil || code != http.StatusOK {
		return rc
	}
	var res serve.RecResult
	if err := json.Unmarshal(resp, &res); err != nil {
		rig.violation("room %s frame %d target %d: unparseable 200 body %q", in.id, k, target, resp)
		return rc
	}
	if msg := checkRendered(res, in.id, k, target, rig.sp.users); msg != "" {
		rig.violation("room %s frame %d target %d: %s", in.id, k, target, msg)
		return rc
	}
	rc.fresh = res.Fresh && res.ServedBy == rig.primary.Name()
	rc.fused, rc.batch, rc.queueMs = res.Fused, res.BatchSize, res.QueueMs
	if rig.sample[[2]int{r, target}] && k < rig.sp.replayFrames {
		rig.mu.Lock()
		if rc.fresh {
			rig.answers[[3]int{r, target, k}] = res.Rendered
		} else {
			rig.stale[[2]int{r, target}] = true
		}
		rig.mu.Unlock()
	}
	return rc
}

func (rig *servingRig) violation(format string, args ...any) {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if len(rig.invalid) < 20 {
		rig.invalid = append(rig.invalid, fmt.Sprintf(format, args...))
	} else {
		rig.invalid[19] = "... more violations"
	}
}

// checkRendered validates one 200 answer: it is for the right room, frame and
// target, and its rendered set is a strictly increasing list of other users
// no longer than the render cap.
func checkRendered(res serve.RecResult, room string, k, target, users int) string {
	switch {
	case res.Room != room || res.Target != target:
		return fmt.Sprintf("answer for room %s target %d", res.Room, res.Target)
	case res.Step != k:
		return fmt.Sprintf("answer for frame %d", res.Step)
	case len(res.Rendered) > renderCap:
		return fmt.Sprintf("%d rendered users, cap %d", len(res.Rendered), renderCap)
	}
	for i, w := range res.Rendered {
		if w < 0 || w >= users || w == target || i > 0 && w <= res.Rendered[i-1] {
			return fmt.Sprintf("bad rendered set %v", res.Rendered)
		}
	}
	return ""
}

// outcome names what happened to a request, for the failure breakdown.
func outcome(rc reqRecord) string {
	switch {
	case rc.fresh:
		return "fresh"
	case rc.status == http.StatusOK:
		return "degraded"
	default:
		return strconv.Itoa(rc.status)
	}
}

// servingRun is one serving workload run.
type servingRun struct {
	sp     servingSpec
	rig    *servingRig
	next   []int
	marks  []mark // sub-window boundaries with the CPU time at each
	rss    float64
	rt     runtimeDelta
	setups []float64
	trainS []float64
	roomS  []float64
}

// runServing sets the workload up sp.setupReps times (keeping the last rig),
// measures the closed loop for the given duration, and returns the raw
// records for reporting and checks.
func runServing(sp servingSpec, seed int64, seconds float64, traced bool, tel *telemetry) (*servingRun, error) {
	ins := makeInputs(sp, seed)
	run := &servingRun{sp: sp}
	for rep := 0; rep < sp.setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = epoch
		}
		rig, err := setupServing(sp, ins, traced, tel)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		run.setups = append(run.setups, time.Since(start).Seconds())
		run.trainS = append(run.trainS, rig.trainS)
		run.roomS = append(run.roomS, rig.roomS...)
		if rep < sp.setupReps-1 {
			rig.close()
			continue
		}
		run.rig = rig
	}
	rig := run.rig
	rt0 := readRuntime()
	n := subWindows(seconds)
	stopMarks := startMarks(time.Duration(seconds / float64(n) * float64(time.Second)))
	start := time.Now()
	run.next = rig.loop(sp.warmFrames, start.Add(time.Duration(seconds*float64(time.Second))), 0)
	run.marks = stopMarks()
	if len(run.marks) > n+1 {
		// The last tick can land while the final frames finish; fold that
		// sliver into the last sub-window.
		run.marks = append(run.marks[:n], run.marks[len(run.marks)-1])
	}
	_, run.rss = usage()
	rt1 := readRuntime()
	rig.flatten()
	run.rt = diffRuntime(rt0, rt1, int64(len(rig.reqs)))
	return run, nil
}

// endToEnd computes the user-visible metrics of a serving run. Rates,
// latency quantiles and CPU per op are computed per sub-window and reported
// as the median across sub-windows; the fresh share covers the whole window.
// The tail is p99 where a sub-window holds enough requests, else the highest
// quantile with minBeyond requests beyond it. A failed request counts as an
// infinite latency in its sub-window's quantiles; the whole-window latency
// profile in the record covers fresh answers only.
func (run *servingRun) endToEnd() (map[string]float64, tally, map[string]any) {
	rig, marks := run.rig, run.marks
	ns := len(marks) - 1
	subLat := make([][]float64, ns)
	subTicks := make([][]float64, ns)
	subFresh := make([]float64, ns)
	subOps := make([]float64, ns)
	var t tally
	lat := make([]float64, 0, len(rig.reqs))
	outcomes := map[string]int{}
	for _, rc := range rig.reqs {
		t.add(rc.fresh)
		outcomes[outcome(rc)]++
		ms := math.Inf(1) // a failed request misses every latency limit
		if rc.fresh {
			ms = float64(rc.iv.dur()) / 1e6
			lat = append(lat, ms)
		}
		j := subWindowOf(marks, rc.iv.end)
		subLat[j] = append(subLat[j], ms)
		subOps[j]++
		if rc.fresh {
			subFresh[j]++
		}
	}
	for _, f := range rig.frames {
		j := subWindowOf(marks, f.tick.end)
		subTicks[j] = append(subTicks[j], float64(f.tick.dur())/1e6)
	}
	var rates, p50s, tails, tailQs, tickP50s, cpuPerOp []float64
	for j := 0; j < ns; j++ {
		secs := float64(marks[j+1].at-marks[j].at) / 1e9
		rates = append(rates, subFresh[j]/secs)
		sorted := sortedCopy(subLat[j])
		p50s = append(p50s, quantile(sorted, 0.5))
		v, q := tail(sorted, 0.99)
		tails, tailQs = append(tails, v), append(tailQs, q)
		tickP50s = append(tickP50s, quantile(sortedCopy(subTicks[j]), 0.5))
		cpuPerOp = append(cpuPerOp, float64(marks[j+1].cpu-marks[j].cpu)/1e6/max(subOps[j], 1))
	}
	sort.Float64s(lat)
	secs := float64(marks[ns].at-marks[0].at) / 1e9
	m := map[string]float64{
		"setup_s":       median(run.setups),
		"recs_per_s":    median(rates),
		"rec_p50_ms":    median(p50s),
		"rec_p99_ms":    median(tails),
		"tick_p50_ms":   median(tickP50s),
		"fresh_share":   t.okShare(),
		"cpu_ms_per_op": median(cpuPerOp),
		"peak_rss_mb":   run.rss,
	}
	samples := map[string]any{
		"outcomes":           outcomes,
		"requests":           len(rig.reqs),
		"failed":             t.failed,
		"frames":             len(rig.frames),
		"rec_tail_quantile":  median(tailQs),
		"rec_quantiles_ms":   profile(lat), // fresh answers only
		"sub_rec_tail_ms":    tails,
		"window_s":           secs,
		"sub_windows":        ns,
		"sub_recs_per_s":     rates,
		"sub_rec_p50_ms":     p50s,
		"sub_tick_p50_ms":    tickP50s,
		"sub_cpu_ms_per_op":  cpuPerOp,
		"window_recs_per_s":  float64(t.attempted-t.failed) / secs,
		"window_cpu_ms_p_op": float64(marks[ns].cpu-marks[0].cpu) / 1e6 / float64(max(t.attempted, 1)),
		"setup_reps_s":       run.setups,
		"setup_first_s":      run.setups[0],
	}
	return m, t, samples
}

// movedShare is the share of users whose position differs between two
// consecutive frames, over every room.
func (run *servingRun) movedShare() float64 {
	moved, total := 0, 0
	for _, in := range run.rig.ins {
		for f := 1; f < len(in.frames); f++ {
			for i := range in.frames[f] {
				if in.frames[f][i] != in.frames[f-1][i] {
					moved++
				}
				total++
			}
		}
	}
	return float64(moved) / float64(max(total, 1))
}

// inputProps records the properties of the workload's inputs.
func (run *servingRun) inputProps(seed int64) map[string]any {
	sp, rig := run.sp, run.rig
	// Mean occlusion edges per target-frame over a fixed sample of frames.
	edges, graphs := 0, 0
	for _, in := range rig.ins {
		for i := 0; i < sp.propFrames; i++ {
			k := sp.warmFrames + i*sp.distinct/sp.propFrames
			for _, target := range targetsAt(sp, in, k) {
				edges += occlusion.BuildStatic(target, in.positions(k), occlusion.DefaultAvatarRadius).EdgeCount()
				graphs++
			}
		}
	}
	frames := 0
	for _, k := range run.next {
		frames += k - sp.warmFrames
	}
	return map[string]any{
		"seed":                    seed,
		"users":                   sp.users,
		"rooms":                   sp.rooms,
		"targets_per_frame":       sp.targets,
		"requests_per_frame":      sp.targets,
		"deadline_ms":             sp.deadlineMs,
		"target_rotation_frames":  sp.rotateEvery,
		"room_side_m":             paperSide * math.Sqrt(float64(sp.users)/paperUsers),
		"occlusion_moved_share":   run.movedShare(),
		"occlusion_edges_per_tgt": float64(edges) / float64(max(graphs, 1)),
		"frames_attempted":        frames,
		"requests_attempted":      len(rig.reqs),
	}
}

// replayCheck steps the sampled (room, target) pairs sequentially through
// the primary's per-target stepper on a regenerated room and compares every
// fresh answer with the replay. Fused f64 ≡ sequential is a pinned
// invariant of the model, so this holds for any seed.
func (run *servingRun) replayCheck() (checked int, err error) {
	rig, sp := run.rig, run.sp
	got, stale := rig.answers, rig.stale
	rooms := map[int]*dataset.Room{}
	for pair := range rig.sample {
		if rooms[pair[0]] == nil {
			room, err := dataset.Generate(createRoomConfig(rig.ins[pair[0]].spec))
			if err != nil {
				return 0, err
			}
			rooms[pair[0]] = room
		}
	}
	pairs := make([][2]int, 0, len(rig.sample))
	for pair := range rig.sample {
		if !stale[pair] {
			pairs = append(pairs, pair)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i][0] < pairs[j][0] || pairs[i][0] == pairs[j][0] && pairs[i][1] < pairs[j][1]
	})
	errs := make([]error, len(pairs))
	counts := make([]int, len(pairs))
	parallel.ForEach(len(pairs), func(i int) {
		r, target := pairs[i][0], pairs[i][1]
		in, room := rig.ins[r], rooms[r]
		st := rig.primary.StartEpisode(room, target)
		for k := 0; k < min(sp.replayFrames, run.next[r]); k++ {
			if !contains(targetsAt(sp, in, k), target) {
				continue
			}
			out := st.Step(k, occlusion.BuildStatic(target, in.positions(k), room.AvatarRadius))
			want := []int{}
			for w, on := range out {
				if on && w != target {
					want = append(want, w)
				}
			}
			have, ok := got[[3]int{r, target, k}]
			if !ok {
				errs[i] = fmt.Errorf("room %s target %d: no answer recorded for frame %d", in.id, target, k)
				return
			}
			if !equalInts(have, want) {
				errs[i] = fmt.Errorf("room %s target %d frame %d: served %v, sequential replay %v", in.id, target, k, have, want)
				return
			}
			counts[i]++
		}
	})
	for i := range pairs {
		if errs[i] != nil {
			return checked, errs[i]
		}
		checked += counts[i]
	}
	if checked == 0 {
		return 0, fmt.Errorf("no fresh sampled answers to replay")
	}
	return checked, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
