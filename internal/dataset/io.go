package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"after/internal/crowd"
	"after/internal/geom"
	"after/internal/occlusion"
	"after/internal/socialgraph"
)

// diskEdge is one serialized social tie.
type diskEdge struct {
	U, V int
	W    float64
}

// diskRoom is the gob-codable mirror of Room: the graph is flattened to an
// edge list and trajectories to plain coordinate slices.
type diskRoom struct {
	Name         string
	N            int
	Edges        []diskEdge
	Interests    [][]float64
	Interfaces   []occlusion.Interface
	Positions    [][]geom.Vec2
	P, S         []float64
	AvatarRadius float64
}

// validate rejects structurally corrupt disk rooms before any constructor
// that panics on bad input (socialgraph.New/AddEdge, the occlusion
// converter) can see them. Room.Validate re-checks the semantic invariants
// after assembly; this layer guards the raw decoded shape.
func (d *diskRoom) validate() error {
	if d.N < 2 {
		return fmt.Errorf("user count %d (want >= 2)", d.N)
	}
	for i, e := range d.Edges {
		if e.U < 0 || e.U >= d.N || e.V < 0 || e.V >= d.N {
			return fmt.Errorf("edge %d endpoints (%d,%d) out of range [0,%d)", i, e.U, e.V, d.N)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("edge %d weight %v not finite", i, e.W)
		}
	}
	if len(d.Interests) != d.N {
		return fmt.Errorf("%d interest vectors for %d users", len(d.Interests), d.N)
	}
	if len(d.Interests[0]) == 0 {
		return fmt.Errorf("empty interest vectors")
	}
	for u, vec := range d.Interests {
		if len(vec) != len(d.Interests[0]) {
			return fmt.Errorf("interest[%d] has %d dims, interest[0] %d", u, len(vec), len(d.Interests[0]))
		}
		for k, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("interest[%d][%d]=%v not finite", u, k, v)
			}
		}
	}
	if len(d.Interfaces) != d.N {
		return fmt.Errorf("%d interfaces for %d users", len(d.Interfaces), d.N)
	}
	if len(d.Positions) == 0 {
		return fmt.Errorf("empty trajectory")
	}
	for t, row := range d.Positions {
		if len(row) != d.N {
			return fmt.Errorf("trajectory step %d covers %d users, want %d", t, len(row), d.N)
		}
		for w, p := range row {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Z) || math.IsInf(p.Z, 0) {
				return fmt.Errorf("trajectory step %d user %d position (%v,%v) not finite", t, w, p.X, p.Z)
			}
		}
	}
	if len(d.P) != d.N*d.N || len(d.S) != d.N*d.N {
		return fmt.Errorf("utility matrices sized %d/%d, want %d", len(d.P), len(d.S), d.N*d.N)
	}
	for i, v := range d.P {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("P[%d]=%v not finite", i, v)
		}
	}
	for i, v := range d.S {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("S[%d]=%v not finite", i, v)
		}
	}
	if math.IsNaN(d.AvatarRadius) || math.IsInf(d.AvatarRadius, 0) || d.AvatarRadius <= 0 {
		return fmt.Errorf("avatar radius %v", d.AvatarRadius)
	}
	return nil
}

// Encode serializes the room with encoding/gob.
func (r *Room) Encode(w io.Writer) error {
	d := diskRoom{
		Name:         r.Name,
		N:            r.N,
		Interests:    r.Interests,
		Interfaces:   r.Interfaces,
		Positions:    r.Traj.Pos,
		P:            r.P,
		S:            r.S,
		AvatarRadius: r.AvatarRadius,
	}
	for u := 0; u < r.N; u++ {
		for _, v := range r.Graph.Neighbors(u) {
			if v > u {
				d.Edges = append(d.Edges, diskEdge{U: u, V: v, W: r.Graph.Weight(u, v)})
			}
		}
	}
	return gob.NewEncoder(w).Encode(d)
}

// ReadRoom deserializes a room written by Encode and validates it. A
// truncated or corrupt stream yields a wrapped error, never a downstream
// panic: every dimension and every numeric value is checked before any
// constructor that would panic on bad input runs.
func ReadRoom(rd io.Reader) (*Room, error) {
	var d diskRoom
	if err := gob.NewDecoder(rd).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode room: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("dataset: corrupt room %q: %w", d.Name, err)
	}
	g := socialgraph.New(d.N)
	for _, e := range d.Edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	r := &Room{
		Name:         d.Name,
		N:            d.N,
		Graph:        g,
		Interests:    d.Interests,
		Interfaces:   d.Interfaces,
		Traj:         &crowd.Trajectories{Pos: d.Positions},
		P:            d.P,
		S:            d.S,
		AvatarRadius: d.AvatarRadius,
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Save writes the room to path.
func (r *Room) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a room from path, wrapping decode/validation failures with
// the file name so a corrupt room file is diagnosable from the error alone.
func Load(path string) (*Room, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadRoom(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s: %w", path, err)
	}
	return r, nil
}
