package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/serve"
)

// paperSide is the side of the paper's 10 m × 10 m room, which holds 200
// users; larger rooms grow so the density stays the same.
const (
	paperSide  = 10.0
	paperUsers = 200
	maxStep    = 0.15 // metres a moving user walks between two frames
	minStep    = 0.01 // keeps every move visible after rounding to 0.1 mm
)

// roomInput is everything the loop sends to one room, generated from the
// seed before any timing starts.
type roomInput struct {
	id     string
	spec   serve.RoomSpec
	frames [][]geom.Vec2 // distinct frames; frame k uses frames[pingPong(k)]
	bodies [][]byte      // the JSON positions array of each distinct frame
	order  []int         // target schedule: a permutation of the users
	recs   map[int][]byte
}

func (in *roomInput) pingPong(k int) int {
	n := len(in.frames)
	if n == 1 {
		return 0
	}
	r := k % (2*n - 2)
	if r < n {
		return r
	}
	return 2*n - 2 - r
}

func (in *roomInput) positions(k int) []geom.Vec2 { return in.frames[in.pingPong(k)] }

func (in *roomInput) frameBody(k int) []byte {
	b := make([]byte, 0, len(in.bodies[0])+40)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"positions":`...)
	b = append(b, in.bodies[in.pingPong(k)]...)
	return append(b, '}')
}

func targetsAt(sp servingSpec, in *roomInput, k int) []int {
	g := 0
	if sp.rotateEvery > 0 {
		g = k / sp.rotateEvery
	}
	out := make([]int, sp.targets)
	for j := range out {
		out[j] = in.order[(g*sp.targets+j)%len(in.order)]
	}
	return out
}

// makeInputs generates every room's positions, frames and request bodies.
func makeInputs(sp servingSpec, seed int64) []*roomInput {
	side := paperSide * math.Sqrt(float64(sp.users)/paperUsers)
	ins := make([]*roomInput, sp.rooms)
	for r := range ins {
		rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
		in := &roomInput{
			id: fmt.Sprintf("r%d", r),
			spec: serve.RoomSpec{
				Name:  fmt.Sprintf("r%d", r),
				Kind:  "timik",
				Users: sp.users,
				Seed:  seed*64 + int64(r) + 1,
			},
			order: rng.Perm(sp.users),
			recs:  map[int][]byte{},
		}
		pos := make([]geom.Vec2, sp.users)
		for i := range pos {
			pos[i] = geom.Vec2{X: round4(rng.Float64() * side), Z: round4(rng.Float64() * side)}
		}
		movers := int(math.Round(sp.moveShare * float64(sp.users)))
		for f := 0; f < sp.distinct; f++ {
			if f > 0 {
				next := append([]geom.Vec2(nil), pos...)
				for _, i := range rng.Perm(sp.users)[:movers] {
					next[i] = walk(pos[i], rng, side)
				}
				pos = next
			}
			in.frames = append(in.frames, pos)
			in.bodies = append(in.bodies, encodePositions(pos))
		}
		for _, t := range in.order {
			body := `{"target":` + strconv.Itoa(t)
			if sp.deadlineMs > 0 {
				body += `,"deadline_ms":` + strconv.FormatFloat(sp.deadlineMs, 'f', -1, 64)
			}
			in.recs[t] = []byte(body + "}")
		}
		ins[r] = in
	}
	return ins
}

// walk moves p by a random step of minStep..maxStep metres, reflected into
// the room.
func walk(p geom.Vec2, rng *rand.Rand, side float64) geom.Vec2 {
	a := rng.Float64() * 2 * math.Pi
	d := minStep + rng.Float64()*(maxStep-minStep)
	return geom.Vec2{X: round4(reflect(p.X+d*math.Cos(a), side)), Z: round4(reflect(p.Z+d*math.Sin(a), side))}
}

func reflect(v, side float64) float64 {
	if v < 0 {
		return -v
	}
	if v > side {
		return 2*side - v
	}
	return v
}

// round4 rounds to 0.1 mm, so the JSON text is short and parses back to the
// identical float64.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

func encodePositions(pos []geom.Vec2) []byte {
	b := []byte{'['}
	for i, p := range pos {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'f', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Z, 'f', -1, 64)
		b = append(b, ']')
	}
	return append(b, ']')
}

// createRoomConfig is the generator configuration serve.Server.CreateRoom
// derives from a RoomSpec with only kind, users and seed set.
func createRoomConfig(spec serve.RoomSpec) dataset.Config {
	platform := min(max(10*spec.Users, 200), 3000)
	return dataset.Config{
		Kind:          dataset.Timik,
		PlatformUsers: platform,
		RoomUsers:     spec.Users,
		T:             8,
		Seed:          spec.Seed,
	}
}
