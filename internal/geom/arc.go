package geom

import (
	"fmt"
	"math"
)

// Arc is a closed angular interval on the target user's 360-degree view
// circle, the I_t^w of Table I. Center is the azimuth of the occupying user
// and HalfWidth its angular half-extent; both are radians, with Center
// normalized to [0, 2π) and 0 <= HalfWidth <= π.
//
// An arc with HalfWidth >= π covers the whole circle (the occupying user is
// so close that it fills the viewport).
type Arc struct {
	Center    float64
	HalfWidth float64
}

// NewArc builds an arc from an arbitrary center angle and half-width,
// normalizing the center and clamping the half-width to [0, π].
func NewArc(center, halfWidth float64) Arc {
	return Arc{Center: NormalizeAngle(center), HalfWidth: Clamp(halfWidth, 0, math.Pi)}
}

// ArcOf returns the arc that a disk of radius r centred at p occupies in the
// 360-degree view of an observer at eye, and the distance d from eye to p.
// This is the occlusion-graph converter's per-user primitive from Sec.
// III-B: the subtended half-angle of a disk at distance d is asin(r/d),
// saturating to a full-circle arc when the observer is inside the disk.
func ArcOf(eye, p Vec2, r float64) (Arc, float64) {
	d := eye.Dist(p)
	if d <= r {
		return Arc{Center: 0, HalfWidth: math.Pi}, d
	}
	return Arc{Center: p.Sub(eye).Azimuth(), HalfWidth: math.Asin(r / d)}, d
}

// Full reports whether the arc covers the entire view circle.
func (a Arc) Full() bool { return a.HalfWidth >= math.Pi }

// Contains reports whether azimuth theta lies inside the arc.
func (a Arc) Contains(theta float64) bool {
	if a.Full() {
		return true
	}
	return math.Abs(AngleDiff(a.Center, theta)) <= a.HalfWidth+1e-12
}

// Overlaps reports whether two arcs intersect on the circle, i.e. whether an
// edge between their users exists in the static occlusion graph.
func (a Arc) Overlaps(b Arc) bool {
	if a.Full() || b.Full() {
		return true
	}
	return math.Abs(AngleDiff(a.Center, b.Center)) <= a.HalfWidth+b.HalfWidth+1e-12
}

// Width returns the total angular width of the arc.
func (a Arc) Width() float64 {
	if a.Full() {
		return 2 * math.Pi
	}
	return 2 * a.HalfWidth
}

// OverlapWidth returns the angular width of the intersection of a and b
// (zero when they do not overlap). It is used by occlusion-rate metrics that
// weight edges by how badly the images overlap.
func (a Arc) OverlapWidth(b Arc) float64 {
	if a.Full() {
		return b.Width()
	}
	if b.Full() {
		return a.Width()
	}
	gap := math.Abs(AngleDiff(a.Center, b.Center))
	w := a.HalfWidth + b.HalfWidth - gap
	if w <= 0 {
		return 0
	}
	return math.Min(w, math.Min(a.Width(), b.Width()))
}

// String implements fmt.Stringer for debugging output.
func (a Arc) String() string {
	return fmt.Sprintf("Arc(center=%.3f, half=%.3f)", a.Center, a.HalfWidth)
}
