package resilience_test

import (
	"encoding/binary"
	"math"
	"testing"

	"after/internal/geom"
	"after/internal/resilience"
)

// FuzzSanitize feeds two fuzzed frames (16 bytes per user: x then z as
// little-endian float64 bits) to one Sanitizer for a room of n users. Each
// result must hold n finite positions: a finite input position is kept, any
// other holds the user's previous output (the origin before the first). It
// must report repaired exactly when the frame was short, long or carried a
// non-finite coordinate.
func FuzzSanitize(f *testing.F) {
	f.Fuzz(func(t *testing.T, users uint8, a, b []byte) {
		n := int(users % 64)
		s := resilience.NewSanitizer(n)
		prev := make([]geom.Vec2, n)
		for _, data := range [][]byte{a, b} {
			raw := make([]geom.Vec2, len(data)/16)
			wantRepaired := len(raw) != n
			for i := range raw {
				raw[i] = geom.Vec2{
					X: math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
					Z: math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])),
				}
				if !finite(raw[i]) {
					wantRepaired = true
				}
			}
			pos, repaired := s.Sanitize(raw)
			if repaired != wantRepaired {
				t.Fatalf("n=%d raw=%v: repaired=%v, want %v", n, raw, repaired, wantRepaired)
			}
			if len(pos) != n {
				t.Fatalf("n=%d: %d positions", n, len(pos))
			}
			for w, p := range pos {
				want := prev[w]
				if w < len(raw) && finite(raw[w]) {
					want = raw[w]
				}
				if !finite(p) || p != want {
					t.Fatalf("n=%d user %d: got %v, want %v (raw %v)", n, w, p, want, raw)
				}
			}
			prev = pos
		}
	})
}

func finite(v geom.Vec2) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) && !math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}
