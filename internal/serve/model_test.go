package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/sim"
)

// modelConfig is the server every TestServeModel sequence runs against:
// small caps so the generator reaches the room cap, the user bound and both
// admission queues, and deadlines long enough that an unloaded trivial step
// is always fresh. Primary is filled in per run.
var modelConfig = Config{
	DefaultDeadline: 500 * time.Millisecond,
	MaxDeadline:     time.Second,
	MaxBatch:        4,
	BatchWindow:     300 * time.Microsecond,
	RoomQueue:       4,
	GlobalQueue:     6,
	Concurrency:     1,
	MaxRooms:        3,
	MaxRoomUsers:    16,
}

// modelSlack is the scheduling slack a Recommend may take past its deadline
// plus the straggler grace (AbandonAfter).
const modelSlack = 750 * time.Millisecond

type opKind int

const (
	opCreate opKind = iota
	opFrame
	opRecommend
	opBurst
	opDrain
)

// want is the model's prediction for one call: the status (200 for
// success), a substring of the error message, and what a success reports.
type want struct {
	status int
	msg    string
	users  int // create
	// frame
	applied, repaired bool
	// recommend: the served step and the room size; tiny marks a deadline
	// the request may spend in the queue (1ns always does).
	step, n int
	tiny    bool
}

func fail(status int, msg string) want { return want{status: status, msg: msg} }

// call is one Recommend: a recommend operation, or one member of a burst.
type call struct {
	room     string
	target   int
	deadline time.Duration
	cancel   bool
	want     want
}

type op struct {
	kind  opKind
	spec  RoomSpec
	room  string
	index int
	pos   []geom.Vec2
	calls []call // one for a recommend, many for a burst
	want  want
}

func (o op) String() string {
	switch o.kind {
	case opCreate:
		return fmt.Sprintf("create %+v", o.spec)
	case opFrame:
		return fmt.Sprintf("frame room=%s index=%d len=%d", o.room, o.index, len(o.pos))
	case opRecommend:
		c := o.calls[0]
		return fmt.Sprintf("recommend room=%s target=%d deadline=%v cancelled=%v", c.room, c.target, c.deadline, c.cancel)
	case opBurst:
		return fmt.Sprintf("burst of %d recommends", len(o.calls))
	}
	return "drain"
}

// modelRoom is the model's view of one live room.
type modelRoom struct {
	name     string
	n        int
	applied  int
	hasFrame bool
	frames   int
}

// model is the reference the server is checked against: the rooms with
// their N, applied index and whether they hold a frame, the room count
// (len(rooms)) and the draining flag.
type model struct {
	cfg      Config
	rooms    []*modelRoom
	draining bool
}

func (m *model) room(name string) *modelRoom {
	for _, r := range m.rooms {
		if r.name == name {
			return r
		}
	}
	return nil
}

func (m *model) create(spec RoomSpec) want {
	users := spec.Users
	if users == 0 {
		users = 40
	}
	switch {
	case m.draining:
		return fail(http.StatusServiceUnavailable, "draining")
	case spec.Kind != "" && spec.Kind != "timik" && spec.Kind != "smm" && spec.Kind != "hubs":
		return fail(http.StatusBadRequest, "unknown kind")
	case users < 2 || users > m.cfg.MaxRoomUsers:
		return fail(http.StatusBadRequest, "users must be")
	case spec.Horizon > dataset.DefaultT:
		return fail(http.StatusBadRequest, "horizon")
	case len(m.rooms) >= m.cfg.MaxRooms:
		return fail(http.StatusServiceUnavailable, "room capacity")
	case m.room(spec.Name) != nil:
		return fail(http.StatusConflict, "exists")
	}
	m.rooms = append(m.rooms, &modelRoom{name: spec.Name, n: users})
	return want{status: http.StatusOK, users: users}
}

func (m *model) frame(name string, index int, pos []geom.Vec2) want {
	r := m.room(name)
	switch {
	case m.draining:
		return fail(http.StatusServiceUnavailable, "draining")
	case r == nil:
		return fail(http.StatusNotFound, "not found")
	case index < 0:
		return fail(http.StatusBadRequest, "negative")
	case r.hasFrame && index <= r.applied:
		return want{status: http.StatusOK}
	}
	r.applied, r.hasFrame = index, true
	r.frames++
	repaired := len(pos) != r.n
	for _, p := range pos {
		repaired = repaired || math.IsNaN(p.X) || math.IsNaN(p.Z)
	}
	return want{status: http.StatusOK, applied: true, repaired: repaired}
}

func (m *model) recommend(name string, target int, tiny bool) want {
	r := m.room(name)
	switch {
	case m.draining:
		return fail(http.StatusServiceUnavailable, "draining")
	case r == nil:
		return fail(http.StatusNotFound, "not found")
	case target < 0 || target >= r.n:
		return fail(http.StatusBadRequest, "out of range")
	case !r.hasFrame:
		return fail(http.StatusConflict, "no frames")
	}
	return want{status: http.StatusOK, step: r.applied, n: r.n, tiny: tiny}
}

// gen draws an operation sequence from seed, stepping a model as it goes so
// each call carries its predicted outcome, and returns the model's final
// state. bursts enables the concurrent burst operation and tiny deadlines
// other than 1ns, whose outcomes depend on timing.
func gen(seed int64, cfg Config, n int, bursts bool) ([]op, *model) {
	rng := rand.New(rand.NewSource(seed))
	m := &model{cfg: cfg}
	pickRoom := func() string {
		if len(m.rooms) == 0 || rng.Intn(10) == 0 {
			return "nope"
		}
		return m.rooms[rng.Intn(len(m.rooms))].name
	}
	newCall := func(room string, target int) call {
		c := call{room: room, target: target}
		tiny := false
		switch rng.Intn(6) {
		case 0:
			c.deadline, tiny = time.Nanosecond, true
			if bursts && rng.Intn(2) == 0 {
				c.deadline = time.Duration(1 + rng.Int63n(int64(4*time.Millisecond)))
			}
		case 1:
			c.deadline = time.Duration(math.MaxInt64)
		case 2:
			c.deadline = time.Hour
		}
		c.want = m.recommend(room, target, tiny)
		return c
	}
	ops := make([]op, 0, n)
	names := 0
	for len(ops) < n {
		var o op
		k := rng.Intn(1000)
		if len(m.rooms) == 0 && k%2 == 0 {
			k = 0 // an empty server mostly answers 404; create a room sooner
		}
		switch {
		case k < 120:
			names++
			o = op{kind: opCreate, spec: RoomSpec{
				Name:    fmt.Sprintf("r%d", names),
				Kind:    []string{"", "timik", "smm", "hubs"}[rng.Intn(4)],
				Users:   2 + rng.Intn(cfg.MaxRoomUsers-1),
				Seed:    1 + rng.Int63n(1000),
				Horizon: rng.Intn(9),
			}}
			switch rng.Intn(8) {
			case 0:
				o.spec.Kind = "bogus"
			case 1:
				o.spec.Users = []int{-3, 0, 1, cfg.MaxRoomUsers + 1 + rng.Intn(5)}[rng.Intn(4)]
			case 2:
				o.spec.Horizon = dataset.DefaultT + 1 + rng.Intn(50)
			case 3:
				if len(m.rooms) > 0 {
					o.spec.Name = m.rooms[rng.Intn(len(m.rooms))].name
				}
			}
			o.want = m.create(o.spec)
		case k < 450:
			o = op{kind: opFrame, room: pickRoom()}
			users := 4
			if r := m.room(o.room); r != nil {
				users = r.n
				o.index = rng.Intn(5)
				if r.hasFrame {
					o.index = r.applied + 1 + rng.Intn(3)
					if rng.Intn(4) == 0 {
						o.index = r.applied - rng.Intn(3) // repeated or older
					}
				}
				if rng.Intn(10) == 0 {
					o.index = []int{-1, -5, math.MinInt}[rng.Intn(3)]
				}
			}
			o.pos = framePos(users, o.index)
			switch rng.Intn(6) {
			case 0:
				o.pos = o.pos[:rng.Intn(users)] // short
			case 1:
				o.pos[rng.Intn(users)].Z = math.NaN() // null coordinate
			case 2:
				o.pos = append(o.pos, geom.Vec2{X: 1, Z: 1}) // over-long
			}
			o.want = m.frame(o.room, o.index, o.pos)
		case bursts && k >= 900 && k < 992:
			// Concurrent recommends spread over at most two rooms, past
			// both admission queues.
			o = op{kind: opBurst}
			rooms := []string{pickRoom(), pickRoom()}
			for i := 0; i < 16; i++ {
				room, target := rooms[i%2], 0
				if r := m.room(room); r != nil {
					target = rng.Intn(r.n)
				}
				o.calls = append(o.calls, newCall(room, target))
			}
		case k < 992:
			o = op{kind: opRecommend}
			room, target := pickRoom(), 0
			if r := m.room(room); r != nil {
				target = rng.Intn(r.n)
				if rng.Intn(8) == 0 {
					target = []int{-1, r.n, r.n + rng.Intn(4)}[rng.Intn(3)]
				}
			}
			c := newCall(room, target)
			c.cancel = rng.Intn(8) == 0
			o.calls = []call{c}
		default:
			o = op{kind: opDrain}
			m.draining = true
		}
		ops = append(ops, o)
	}
	return ops, m
}

// modelRun executes one generated sequence against a fresh server.
type modelRun struct {
	t     *testing.T
	seed  int64
	s     *Server
	log   []string
	sheds int
}

func (r *modelRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d: %s\noperation log:\n  %s", r.seed, fmt.Sprintf(format, args...), strings.Join(r.log, "\n  "))
}

// checkErr matches an error against a predicted failure and checks that a
// shed carries Retry-After.
func checkErr(err error, w want) error {
	ae, ok := err.(*APIError)
	switch {
	case !ok:
		return fmt.Errorf("non-API error %v", err)
	case ae.Status != w.status || !strings.Contains(ae.Msg, w.msg):
		return fmt.Errorf("got %d %q, model says %d %q", ae.Status, ae.Msg, w.status, w.msg)
	case (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable) && ae.RetryAfter <= 0:
		return fmt.Errorf("shed %d %q without Retry-After", ae.Status, ae.Msg)
	}
	return nil
}

// recommend makes one call, checks the answer against the prediction and
// the deadline bound, and returns its canonical line. A cancelled call's
// line is "cancelled" whatever it got: the caller left, and which of the
// outcome and the cancellation wins is up to the scheduler. burst admits
// the sheds a full queue may produce.
func (r *modelRun) recommend(c call, burst bool) (string, bool, error) {
	cfg := r.s.Config()
	ctx := context.Background()
	if c.cancel {
		cc, cancel := context.WithCancel(ctx)
		cancel()
		ctx = cc
	}
	start := time.Now()
	res, err := r.s.Recommend(ctx, c.room, c.target, c.deadline)
	spent := time.Since(start)
	eff := c.deadline
	if eff <= 0 {
		eff = cfg.DefaultDeadline
	}
	if bound := min(eff, cfg.MaxDeadline) + cfg.AbandonAfter + modelSlack; spent > bound {
		return "", false, fmt.Errorf("returned after %v, past deadline+AbandonAfter+slack %v", spent, bound)
	}
	w := c.want
	if err != nil {
		ae, _ := err.(*APIError)
		var msg string
		if ae != nil {
			msg = ae.Msg
		}
		shed := false
		switch {
		case w.status == http.StatusOK && c.cancel && msg == "client cancelled":
			// The caller is gone: not a shed, and no hint is owed.
			return "cancelled", false, nil
		case w.status == http.StatusOK && w.tiny && msg == "deadline expired in queue",
			w.status == http.StatusOK && burst && (msg == "room queue full" || msg == "global queue full"):
			w, shed = fail(ae.Status, msg), true
		}
		if err := checkErr(err, w); err != nil {
			return "", false, err
		}
		if c.cancel {
			return "cancelled", shed, nil
		}
		return fmt.Sprintf("%d %s", w.status, w.msg), shed, nil
	}
	switch {
	case w.status != http.StatusOK:
		return "", false, fmt.Errorf("served %+v, model says %d %q", res, w.status, w.msg)
	case c.deadline == time.Nanosecond:
		return "", false, fmt.Errorf("a 1ns deadline was served instead of expiring in the queue: %+v", res)
	case res.Room != c.room || res.Target != c.target || res.Step != w.step:
		return "", false, fmt.Errorf("served %+v, model says step %d", res, w.step)
	case res.ServedBy == "" || res.BatchSize < 1:
		return "", false, fmt.Errorf("incomplete result %+v", res)
	}
	for i, u := range res.Rendered {
		if u < 0 || u >= w.n || u == c.target || (i > 0 && u <= res.Rendered[i-1]) {
			return "", false, fmt.Errorf("rendered %v is not a set of other users in [0, %d)", res.Rendered, w.n)
		}
	}
	if c.cancel {
		return "cancelled", false, nil
	}
	return fmt.Sprintf("200 step=%d fresh=%v by=%s rendered=%v", res.Step, res.Fresh, res.ServedBy, res.Rendered), false, nil
}

func (r *modelRun) exec(o op) string {
	r.t.Helper()
	switch o.kind {
	case opCreate:
		info, err := r.s.CreateRoom(o.spec)
		if err != nil {
			if err := checkErr(err, o.want); err != nil {
				r.fatalf("%s: %v", o, err)
			}
			return fmt.Sprintf("%d %s", o.want.status, o.want.msg)
		}
		if o.want.status != http.StatusOK || info.ID != o.spec.Name || info.Users != o.want.users {
			r.fatalf("%s: created %+v, model says %+v", o, info, o.want)
		}
		return fmt.Sprintf("200 users=%d", info.Users)
	case opFrame:
		ack, err := r.s.IngestFrame(o.room, o.index, o.pos)
		if err != nil {
			if err := checkErr(err, o.want); err != nil {
				r.fatalf("%s: %v", o, err)
			}
			return fmt.Sprintf("%d %s", o.want.status, o.want.msg)
		}
		if o.want.status != http.StatusOK || ack.Applied != o.want.applied || ack.Repaired != o.want.repaired || ack.Index != o.index {
			r.fatalf("%s: ack %+v, model says %+v", o, ack, o.want)
		}
		return fmt.Sprintf("200 applied=%v repaired=%v", ack.Applied, ack.Repaired)
	case opRecommend:
		c := o.calls[0]
		before := r.s.QueueDepth()
		line, shed, err := r.recommend(c, false)
		if err != nil {
			r.fatalf("%s: %v", o, err)
		}
		if shed {
			r.sheds++
		}
		// A cancelled call the server admitted anyway is batched after the
		// caller left; wait until it has left the queue so it cannot share
		// the next call's batch. A server that refuses it passes at once.
		if c.cancel {
			for end := time.Now().Add(5 * time.Second); r.s.QueueDepth() > before; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(end) {
					r.fatalf("%s: the call never left the queue", o)
				}
			}
		}
		return line
	case opBurst:
		lines := make([]string, len(o.calls))
		errs := make([]error, len(o.calls))
		sheds := make([]bool, len(o.calls))
		var wg sync.WaitGroup
		for i, c := range o.calls {
			wg.Add(1)
			go func(i int, c call) {
				defer wg.Done()
				lines[i], sheds[i], errs[i] = r.recommend(c, true)
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				r.fatalf("%s: call %d (room=%s target=%d deadline=%v): %v", o, i, o.calls[i].room, o.calls[i].target, o.calls[i].deadline, err)
			}
			if sheds[i] {
				r.sheds++
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "; ")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.s.Drain(ctx); err != nil {
		r.fatalf("drain: %v", err)
	}
	return "drained"
}

// run executes ops on a server with the given primary, checks the room
// census against the model's final state m, drains, and waits for the
// goroutine count to return to baseline. It returns one line per operation.
func (r *modelRun) run(primary sim.Recommender, ops []op, m *model, baseline int) []string {
	r.t.Helper()
	cfg := modelConfig
	cfg.Primary = primary
	r.s = New(cfg)
	out := make([]string, len(ops))
	for i, o := range ops {
		r.log = append(r.log, o.String())
		out[i] = r.exec(o)
		r.log[i] += " -> " + out[i]
	}
	if got := len(r.s.Rooms()); got != len(m.rooms) {
		r.fatalf("server holds %d rooms, model %d", got, len(m.rooms))
	}
	for _, mr := range m.rooms {
		info, err := r.s.RoomInfo(mr.name)
		if err != nil || info.Users != mr.n || info.Frames != int64(mr.frames) || (mr.hasFrame && info.FrameIndex != int64(mr.applied)) {
			r.fatalf("room %s: info %+v (err %v), model %+v", mr.name, info, err, *mr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.s.Drain(ctx); err != nil {
		r.fatalf("final drain: %v", err)
	}
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			r.fatalf("goroutines %d after drain, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
	return out
}

// TestServeModel drives seeded random sequences of room creation, frame
// ingestion, recommendation (valid and invalid, with default, tiny and huge
// deadlines and already-cancelled contexts), concurrent bursts past the
// admission queues, and drain against a Server, and checks every answer
// against a small reference model. Beyond each status it checks that every
// shed carries Retry-After, that a served result reports the room's applied
// frame index and a set of other users, that every call returns within its
// deadline plus the straggler grace, and that drain leaks no goroutines.
// Sequences without bursts run twice — with a batch-capable primary and a
// per-target one — and must answer identically, operation by operation.
func TestServeModel(t *testing.T) {
	plain, withBursts := 60, 20
	if testing.Short() {
		plain, withBursts = 6, 3
	}
	const opsPerSeq = 80
	baseline := runtime.NumGoroutine()
	sheds := 0
	for i := 0; i < plain+withBursts; i++ {
		seed := int64(i + 1)
		bursts := i >= plain
		ops, m := gen(seed, modelConfig, opsPerSeq, bursts)
		if bursts {
			r := &modelRun{t: t, seed: seed}
			r.run(testRec{name: "test", delay: 2 * time.Millisecond}, ops, m, baseline)
			sheds += r.sheds
			continue
		}
		fused := (&modelRun{t: t, seed: seed}).run(fusedRec{name: "test"}, ops, m, baseline)
		solo := (&modelRun{t: t, seed: seed}).run(testRec{name: "test"}, ops, m, baseline)
		for j := range ops {
			if fused[j] != solo[j] {
				t.Fatalf("seed %d: fused and per-target primaries diverge at operation %d (%s):\n  fused: %s\n  solo:  %s",
					seed, j, ops[j], fused[j], solo[j])
			}
		}
	}
	if withBursts > 0 && sheds == 0 {
		t.Fatal("no burst or tiny deadline was ever shed; admission control is not bounding")
	}
}
