package occlusion

import (
	"encoding/binary"
	"slices"
	"testing"

	"after/internal/geom"
)

// fuzzUnit is the coordinate and radius resolution of FuzzBuildStatic's
// decoder (1/4096 m): fine enough to place a user exactly on, or one step
// outside, the avatar radius of the eye.
const fuzzUnit = 1.0 / 4096

// FuzzBuildStatic is the converter's differential fuzz target. The input
// decodes to a room (4 bytes per user: little-endian int16 X then Z, in
// fuzzUnit steps, so ±8 m), a target (modulo the room size) and an avatar
// radius of (radius+1)·fuzzUnit, up to 16 m. The sweep must reproduce the
// all-pairs converter exactly: every user's neighbor list, the edge count,
// and the CSR arrays. Frame positions are HTTP input that reaches the
// converter after the sanitizer, so any finite room is fair game.
func FuzzBuildStatic(f *testing.F) {
	f.Fuzz(func(t *testing.T, target uint8, radius uint16, data []byte) {
		n := min(len(data)/4, 512)
		if n == 0 {
			return
		}
		pos := make([]geom.Vec2, n)
		for i := range pos {
			x := int16(binary.LittleEndian.Uint16(data[4*i:]))
			z := int16(binary.LittleEndian.Uint16(data[4*i+2:]))
			pos[i] = geom.Vec2{X: float64(x) * fuzzUnit, Z: float64(z) * fuzzUnit}
		}
		v := int(target) % n
		r := float64(int(radius)+1) * fuzzUnit
		sweep := BuildStatic(v, pos, r)
		brute := buildStaticBrute(v, pos, r)
		for w := 0; w < n; w++ {
			if got, want := sweep.Neighbors(w), brute.Neighbors(w); !slices.Equal(got, want) {
				t.Fatalf("target %d radius %v: user %d neighbors %v, brute %v", v, r, w, got, want)
			}
		}
		if got, want := sweep.EdgeCount(), brute.EdgeCount(); got != want {
			t.Fatalf("EdgeCount %d, brute %d", got, want)
		}
		got, want := sweep.AdjacencyCSR(), brute.AdjacencyCSR()
		if got.Rows != n || got.Cols != n || !got.Symmetric || got.Val != nil {
			t.Fatalf("CSR shape %dx%d symmetric=%v val=%v, want a %dx%d symmetric pattern",
				got.Rows, got.Cols, got.Symmetric, got.Val != nil, n, n)
		}
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
			t.Fatalf("CSR RowPtr %v Col %v, brute RowPtr %v Col %v", got.RowPtr, got.Col, want.RowPtr, want.Col)
		}
	})
}
