// Package dataset synthesizes the three experimental workloads of the paper
// — Timik, SMM, and Hubs — as generator-backed stand-ins for the original
// dumps (see DESIGN.md, substitutions). A generated Room bundles everything
// an AFTER recommender consumes: the sampled social subgraph, per-user
// interest vectors, MR/VR interface assignments, crowd trajectories in the
// conference space, and the dense p(v,w)/s(v,w) utility matrices.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/socialgraph"
)

// Kind selects which of the paper's three datasets to emulate.
type Kind int

const (
	// Timik emulates the Timik.pl social metaverse: a large scale-free
	// friendship network with unit-weight relationship edges and RVO-style
	// crowd trajectories (Sec. V-A1).
	Timik Kind = iota
	// SMM emulates SMMnet: an interaction network whose heavy-tailed edge
	// weights count likes and plays.
	SMM
	// Hubs emulates the Mozilla Hubs VR-workshop trace: dozens of users in
	// a small room with native, slow-moving trajectories.
	Hubs
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Timik:
		return "Timik"
	case SMM:
		return "SMM"
	case Hubs:
		return "Hub"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config controls room generation. Zero fields take the per-kind defaults
// from the paper's setup (Sec. V-A5): N=200, T=100, 50 % VR users, 10 m
// square room (Hubs: N=30 in a 6 m room).
type Config struct {
	Kind Kind
	// PlatformUsers is the size of the platform-scale graph the room is
	// sampled from.
	PlatformUsers int
	// RoomUsers is N, the number of users in the conference space.
	RoomUsers int
	// T is the number of simulated time steps (the trace has T+1 frames).
	T int
	// VRFraction is the proportion of remote (VR) users; the rest are MR.
	VRFraction float64
	// RoomSize is the side length of the square room in metres.
	RoomSize float64
	// Dt is the simulation step in seconds.
	Dt float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultT is the paper-scale trajectory length a zero Config.T stands for.
const DefaultT = 100

func (c Config) withDefaults() Config {
	switch c.Kind {
	case Hubs:
		if c.PlatformUsers == 0 {
			c.PlatformUsers = 400
		}
		if c.RoomUsers == 0 {
			c.RoomUsers = 30
		}
		if c.RoomSize == 0 {
			c.RoomSize = 6
		}
	default:
		if c.PlatformUsers == 0 {
			c.PlatformUsers = 3000
		}
		if c.RoomUsers == 0 {
			c.RoomUsers = 200
		}
		if c.RoomSize == 0 {
			c.RoomSize = 10
		}
	}
	if c.T == 0 {
		c.T = DefaultT
	}
	if c.VRFraction == 0 {
		c.VRFraction = 0.5
	}
	if c.Dt == 0 {
		c.Dt = 0.1
	}
	return c
}

// Room is one generated XR-videoconferencing instance.
type Room struct {
	Name       string
	N          int
	Graph      *socialgraph.Graph
	Interests  [][]float64
	Interfaces []occlusion.Interface
	Traj       *crowd.Trajectories
	// P and S are row-major dense utility matrices: P[v*N+w] = p(v,w).
	P, S []float64
	// AvatarRadius is the disk radius used by the occlusion converter.
	AvatarRadius float64
}

// Pref returns p(v,w).
func (r *Room) Pref(v, w int) float64 { return r.P[v*r.N+w] }

// Social returns s(v,w).
func (r *Room) Social(v, w int) float64 { return r.S[v*r.N+w] }

// T returns the number of simulated steps (frames - 1).
func (r *Room) T() int { return r.Traj.Steps() - 1 }

// MRCount returns the number of co-located (MR) participants.
func (r *Room) MRCount() int {
	c := 0
	for _, i := range r.Interfaces {
		if i == occlusion.MR {
			c++
		}
	}
	return c
}

// Validate checks the structural invariants a well-formed room satisfies;
// recommenders may assume them.
func (r *Room) Validate() error {
	if r.N <= 1 {
		return fmt.Errorf("dataset: room with %d users", r.N)
	}
	if r.Graph.N() != r.N {
		return fmt.Errorf("dataset: graph has %d users, room %d", r.Graph.N(), r.N)
	}
	if len(r.Interfaces) != r.N {
		return fmt.Errorf("dataset: %d interfaces for %d users", len(r.Interfaces), r.N)
	}
	if r.Traj.Agents() != r.N {
		return fmt.Errorf("dataset: trajectories for %d agents, room %d", r.Traj.Agents(), r.N)
	}
	for t, row := range r.Traj.Pos {
		if len(row) != r.N {
			return fmt.Errorf("dataset: trajectory step %d covers %d users, room %d", t, len(row), r.N)
		}
	}
	if len(r.P) != r.N*r.N || len(r.S) != r.N*r.N {
		return fmt.Errorf("dataset: utility matrices sized %d/%d, want %d", len(r.P), len(r.S), r.N*r.N)
	}
	// NaN fails *every* range comparison, so it must be rejected
	// explicitly — `v < 0 || v > 1` silently admits it.
	for i, v := range r.P {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("dataset: P[%d]=%v out of [0,1]", i, v)
		}
	}
	for i, v := range r.S {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("dataset: S[%d]=%v out of [0,1]", i, v)
		}
	}
	if r.AvatarRadius <= 0 {
		return fmt.Errorf("dataset: avatar radius %v", r.AvatarRadius)
	}
	return nil
}

// Generate builds one room according to cfg.
func Generate(cfg Config) (*Room, error) {
	cfg = cfg.withDefaults()
	if cfg.RoomUsers > cfg.PlatformUsers {
		return nil, fmt.Errorf("dataset: room users %d exceed platform %d", cfg.RoomUsers, cfg.PlatformUsers)
	}
	if cfg.RoomUsers < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 room users, got %d", cfg.RoomUsers)
	}
	// Written so that NaN fails too.
	if !(cfg.VRFraction >= 0 && cfg.VRFraction <= 1) {
		return nil, fmt.Errorf("dataset: VR fraction %v outside [0, 1]", cfg.VRFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	platform, interests := generatePlatform(cfg, rng)
	ids := sampleRoomUsers(platform, cfg.RoomUsers, rng)
	g := platform.Subgraph(ids)
	roomInterests := make([][]float64, len(ids))
	for i, id := range ids {
		roomInterests[i] = interests[id]
	}

	model, err := socialgraph.NewUtilityModel(g, roomInterests)
	if err != nil {
		return nil, err
	}
	p, s := model.Matrices()

	interfaces := assignInterfaces(cfg.RoomUsers, cfg.VRFraction, rng)

	room := crowd.Rect{Max: geom.Vec2{X: cfg.RoomSize, Z: cfg.RoomSize}}
	// Social groups gather spatially: label propagation finds the room's
	// communities and each community receives a home region its members'
	// waypoints scatter around. This reproduces the paper's observation that
	// the nearest users "usually are more attractive and easier to
	// socialize" — proximity correlates with social ties.
	labels := g.LabelPropagation(cfg.Seed+11, 8)
	maxLabel := 0
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	centers := make([]geom.Vec2, maxLabel+1)
	margin := cfg.RoomSize * 0.15
	for c := range centers {
		centers[c] = geom.Vec2{
			X: margin + rng.Float64()*(cfg.RoomSize-2*margin),
			Z: margin + rng.Float64()*(cfg.RoomSize-2*margin),
		}
	}
	anchors := make([]geom.Vec2, cfg.RoomUsers)
	for i, l := range labels {
		anchors[i] = centers[l]
	}
	crowdCfg := crowd.Config{Anchors: anchors, AnchorStd: cfg.RoomSize * 0.18}
	if cfg.Kind == Hubs {
		// Workshop users mill about slowly near fixed spots.
		crowdCfg.NeighborDist = 1.0
	}
	sim := crowd.NewSimulator(room, cfg.RoomUsers, rng.Int63(), crowdCfg)
	if cfg.Kind == Hubs {
		for i := range sim.Agents {
			sim.Agents[i].MaxSpeed *= 0.4
		}
	}
	traj := sim.Run(cfg.T, cfg.Dt)

	r := &Room{
		Name:         cfg.Kind.String(),
		N:            cfg.RoomUsers,
		Graph:        g,
		Interests:    roomInterests,
		Interfaces:   interfaces,
		Traj:         traj,
		P:            p,
		S:            s,
		AvatarRadius: occlusion.DefaultAvatarRadius,
	}
	return r, r.Validate()
}

// GenerateRooms builds count rooms with consecutive seeds, e.g. for an
// 80/20 train/test split over independently sampled conference instances.
func GenerateRooms(cfg Config, count int) ([]*Room, error) {
	rooms := make([]*Room, count)
	for i := range rooms {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919 // distinct streams per room
		r, err := Generate(c)
		if err != nil {
			return nil, err
		}
		rooms[i] = r
	}
	return rooms, nil
}

// assignInterfaces marks ceil(n·vrFraction) users as VR (chosen uniformly)
// and the rest as MR.
func assignInterfaces(n int, vrFraction float64, rng *rand.Rand) []occlusion.Interface {
	interfaces := make([]occlusion.Interface, n)
	for i := range interfaces {
		interfaces[i] = occlusion.MR
	}
	vrCount := int(float64(n)*vrFraction + 0.5)
	for _, i := range rng.Perm(n)[:vrCount] {
		interfaces[i] = occlusion.VR
	}
	return interfaces
}
