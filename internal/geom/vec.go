// Package geom provides the low-level geometric primitives used throughout
// the AFTER reproduction: 2-D and 3-D Euclidean vectors and angular
// arithmetic on the unit view circle.
//
// The occlusion model of the paper (Sec. III-B) works in a "flat" social XR
// space: positions live in the y=0 plane, and a target user's 360-degree
// view is the unit circle of azimuths around her. Package geom therefore
// centres on Vec2 operations plus circular arcs (see arc.go); Vec3 exists so
// trajectories can carry the full W = R^3 coordinates from Definition 3.
package geom

import "math"

// Vec2 is a point or displacement in the horizontal plane of the social XR
// space.
type Vec2 struct {
	X, Z float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Z*w.Z }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Z) }

// LenSq returns the squared Euclidean norm of v, avoiding a sqrt.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Z*v.Z }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).LenSq() }

// Normalize returns the unit vector in the direction of v. The zero vector
// normalizes to itself so callers need not special-case stationary agents.
func (v Vec2) Normalize() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return v.Scale(1 / l)
}

// Azimuth returns the angle of v in radians, normalized to [0, 2π).
func (v Vec2) Azimuth() float64 { return NormalizeAngle(math.Atan2(v.Z, v.X)) }

// Perp returns v rotated by +90 degrees.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Z, v.X} }

// Rotate returns v rotated counter-clockwise by theta radians.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{v.X*c - v.Z*s, v.X*s + v.Z*c}
}

// Lerp returns the linear interpolation between v and w at parameter t
// (t=0 yields v, t=1 yields w).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Z + (w.Z-v.Z)*t}
}

// Vec3 is a point in the full 3-D social XR space W from Definition 3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Flat returns the projection of v onto the horizontal plane, which is what
// the flat-world occlusion converter of Sec. III-B consumes.
func (v Vec3) Flat() Vec2 { return Vec2{v.X, v.Z} }

// FromFlat lifts a planar point into W at height y.
func FromFlat(v Vec2, y float64) Vec3 { return Vec3{v.X, y, v.Z} }

// NormalizeAngle maps any angle in radians into [0, 2π).
func NormalizeAngle(a float64) float64 {
	a = modTurn(a)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest rotation from a to b, in (-π, π].
func AngleDiff(a, b float64) float64 {
	d := modTurn(b - a)
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d <= -math.Pi:
		d += 2 * math.Pi
	}
	return d
}

// modTurn is math.Mod(x, 2π). Mod returns x itself when |x| < 2π, the
// common case for differences of normalized angles, so the call is skipped
// there with a bit-identical result.
func modTurn(x float64) float64 {
	if x > -2*math.Pi && x < 2*math.Pi {
		return x
	}
	return math.Mod(x, 2*math.Pi)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
