package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec2Arithmetic(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -4}
	if got := a.Add(b); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := b.Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := b.LenSq(); got != 25 {
		t.Errorf("LenSq = %v", got)
	}
}

func TestVec2DistMatchesSub(t *testing.T) {
	a := Vec2{1, 1}
	b := Vec2{4, 5}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.DistSq(b); got != 25 {
		t.Errorf("DistSq = %v, want 25", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec2{3, 4}.Normalize()
	if !almostEq(v.Len(), 1) {
		t.Errorf("normalized length = %v", v.Len())
	}
	if z := (Vec2{}).Normalize(); z != (Vec2{}) {
		t.Errorf("zero normalize = %v", z)
	}
}

func TestAzimuthQuadrants(t *testing.T) {
	cases := []struct {
		v    Vec2
		want float64
	}{
		{Vec2{1, 0}, 0},
		{Vec2{0, 1}, math.Pi / 2},
		{Vec2{-1, 0}, math.Pi},
		{Vec2{0, -1}, 3 * math.Pi / 2},
	}
	for _, c := range cases {
		if got := c.v.Azimuth(); !almostEq(got, c.want) {
			t.Errorf("Azimuth(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestRotatePreservesLength(t *testing.T) {
	f := func(x, z, theta float64) bool {
		if math.IsNaN(x) || math.IsNaN(z) || math.IsNaN(theta) ||
			math.IsInf(x, 0) || math.IsInf(z, 0) || math.IsInf(theta, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		z = math.Mod(z, 1e6)
		theta = math.Mod(theta, 1e3)
		v := Vec2{x, z}
		r := v.Rotate(theta)
		return math.Abs(r.Len()-v.Len()) < 1e-6*(1+v.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateQuarterTurnIsPerp(t *testing.T) {
	v := Vec2{2, 3}
	r := v.Rotate(math.Pi / 2)
	p := v.Perp()
	if !almostEq(r.X, p.X) || !almostEq(r.Z, p.Z) {
		t.Errorf("Rotate(π/2) = %v, Perp = %v", r, p)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a := Vec2{0, 0}
	b := Vec2{10, -6}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Vec2{5, -3}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 6, 3}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("Add/Sub roundtrip = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Flat(); got != (Vec2{1, 3}) {
		t.Errorf("Flat = %v", got)
	}
	if got := FromFlat(Vec2{7, 8}, 1.5); got != (Vec3{7, 1.5, 8}) {
		t.Errorf("FromFlat = %v", got)
	}
}

func TestNormalizeAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 1e9)
		n := NormalizeAngle(a)
		return n >= 0 && n < 2*math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiffSignAndRange(t *testing.T) {
	if d := AngleDiff(0, math.Pi/2); !almostEq(d, math.Pi/2) {
		t.Errorf("AngleDiff(0, π/2) = %v", d)
	}
	if d := AngleDiff(math.Pi/2, 0); !almostEq(d, -math.Pi/2) {
		t.Errorf("AngleDiff(π/2, 0) = %v", d)
	}
	// Wraparound: from 350° to 10° should be +20°, not -340°.
	if d := AngleDiff(350*math.Pi/180, 10*math.Pi/180); !almostEq(d, 20*math.Pi/180) {
		t.Errorf("wraparound diff = %v", d)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		d := AngleDiff(a, b)
		return d > -math.Pi-eps && d <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestModTurnMatchesMod pins the Mod-free fast path of NormalizeAngle and
// AngleDiff as exact: bit for bit math.Mod(x, 2π) on random angles in and
// out of (-2π, 2π), the ±2π boundaries and their neighbors, signed zeros and
// non-finite inputs.
func TestModTurnMatchesMod(t *testing.T) {
	const turn = 2 * math.Pi
	xs := []float64{0, math.Copysign(0, -1), turn, -turn, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(turn, 0), math.Nextafter(-turn, 0), math.Nextafter(turn, 10), math.Nextafter(-turn, -10)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*4*turn)
	}
	for _, x := range xs {
		if got, want := modTurn(x), math.Mod(x, turn); math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("modTurn(%v) = %v, math.Mod = %v", x, got, want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp mid = %v", got)
	}
}
