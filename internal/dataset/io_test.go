package dataset

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"after/internal/geom"
	"after/internal/occlusion"
)

// goodDisk builds a minimal structurally valid diskRoom for corruption.
func goodDisk() diskRoom {
	n := 3
	pos := make([][]geom.Vec2, 4)
	for t := range pos {
		row := make([]geom.Vec2, n)
		for i := range row {
			row[i] = geom.Vec2{X: float64(i), Z: float64(t)}
		}
		pos[t] = row
	}
	uniform := func() []float64 {
		m := make([]float64, n*n)
		for i := range m {
			m[i] = 0.5
		}
		return m
	}
	return diskRoom{
		Name:         "corrupt-test",
		N:            n,
		Edges:        []diskEdge{{U: 0, V: 1, W: 1}},
		Interests:    [][]float64{{0.1}, {0.2}, {0.3}},
		Interfaces:   make([]occlusion.Interface, n),
		Positions:    pos,
		P:            uniform(),
		S:            uniform(),
		AvatarRadius: occlusion.DefaultAvatarRadius,
	}
}

func decodeDisk(t *testing.T, d diskRoom) error {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	_, err := ReadRoom(&buf)
	return err
}

// TestReadRoomAcceptsGoodDisk guards the fixture: the uncorrupted disk room
// must load, so every rejection below is attributable to its corruption.
func TestReadRoomAcceptsGoodDisk(t *testing.T) {
	if err := decodeDisk(t, goodDisk()); err != nil {
		t.Fatalf("valid disk room rejected: %v", err)
	}
}

// TestReadRoomRejectsCorruptFields: every class of corruption must yield a
// wrapped error — never a panic in a downstream constructor.
func TestReadRoomRejectsCorruptFields(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(d *diskRoom)
		errPart string
	}{
		{"too-few-users", func(d *diskRoom) { d.N = 1 }, "user count"},
		{"edge-out-of-range", func(d *diskRoom) { d.Edges[0].V = 99 }, "out of range"},
		{"edge-negative", func(d *diskRoom) { d.Edges[0].U = -1 }, "out of range"},
		{"edge-nan-weight", func(d *diskRoom) { d.Edges[0].W = math.NaN() }, "not finite"},
		{"interest-count", func(d *diskRoom) { d.Interests = d.Interests[:1] }, "interest"},
		{"interest-inf", func(d *diskRoom) { d.Interests[1][0] = math.Inf(1) }, "not finite"},
		{"interest-ragged", func(d *diskRoom) { d.Interests[2] = []float64{0.3, 0.4} }, "dims"},
		{"interest-empty", func(d *diskRoom) { d.Interests = [][]float64{{}, {}, {}} }, "empty interest"},
		{"interface-count", func(d *diskRoom) { d.Interfaces = d.Interfaces[:1] }, "interfaces"},
		{"empty-trajectory", func(d *diskRoom) { d.Positions = nil }, "empty trajectory"},
		{"short-trajectory-row", func(d *diskRoom) { d.Positions[2] = d.Positions[2][:1] }, "covers"},
		{"nan-position", func(d *diskRoom) { d.Positions[1][0].X = math.NaN() }, "not finite"},
		{"inf-position", func(d *diskRoom) { d.Positions[3][2].Z = math.Inf(-1) }, "not finite"},
		{"matrix-size", func(d *diskRoom) { d.P = d.P[:4] }, "utility matrices"},
		{"nan-utility", func(d *diskRoom) { d.S[0] = math.NaN() }, "not finite"},
		{"zero-radius", func(d *diskRoom) { d.AvatarRadius = 0 }, "radius"},
		{"nan-radius", func(d *diskRoom) { d.AvatarRadius = math.NaN() }, "radius"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := goodDisk()
			tc.mutate(&d)
			err := decodeDisk(t, d)
			if err == nil {
				t.Fatal("corrupt disk room accepted")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// TestReadRoomTruncatedStream: a stream cut mid-gob must error cleanly.
func TestReadRoomTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(goodDisk()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadRoom(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated stream (%d of %d bytes) accepted", cut, len(raw))
		}
	}
}

// TestValidateRejectsNaNUtility: NaN passes every range comparison, so
// Validate must reject it explicitly.
func TestValidateRejectsNaNUtility(t *testing.T) {
	r, err := Generate(smallCfg(Hubs))
	if err != nil {
		t.Fatal(err)
	}
	r.P[1] = math.NaN()
	if err := r.Validate(); err == nil {
		t.Error("NaN utility passed validation")
	}
	r, err = Generate(smallCfg(Hubs))
	if err != nil {
		t.Fatal(err)
	}
	r.S[2] = math.NaN()
	if err := r.Validate(); err == nil {
		t.Error("NaN social utility passed validation")
	}
}
