package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArcOfSubtendedAngle(t *testing.T) {
	eye := Vec2{0, 0}
	// Disk of radius 1 at distance 2 subtends half-angle asin(1/2) = 30°.
	a, d := ArcOf(eye, Vec2{2, 0}, 1)
	if d != 2 {
		t.Errorf("distance = %v", d)
	}
	if !almostEq(a.Center, 0) {
		t.Errorf("center = %v", a.Center)
	}
	if !almostEq(a.HalfWidth, math.Asin(0.5)) {
		t.Errorf("half width = %v, want %v", a.HalfWidth, math.Asin(0.5))
	}
}

func TestArcOfInsideDiskIsFull(t *testing.T) {
	a, _ := ArcOf(Vec2{0, 0}, Vec2{0.1, 0}, 0.5)
	if !a.Full() {
		t.Errorf("observer inside disk should yield full arc, got %v", a)
	}
	if !a.Contains(1.234) {
		t.Error("full arc must contain every azimuth")
	}
}

func TestOverlapsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := NewArc(rng.Float64()*2*math.Pi, rng.Float64()*math.Pi)
		b := NewArc(rng.Float64()*2*math.Pi, rng.Float64()*math.Pi)
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("Overlaps not symmetric for %v, %v", a, b)
		}
	}
}

func TestOverlapsSelf(t *testing.T) {
	f := func(c, h float64) bool {
		if math.IsNaN(c) || math.IsNaN(h) || math.IsInf(c, 0) || math.IsInf(h, 0) {
			return true
		}
		a := NewArc(math.Mod(c, 100), math.Abs(math.Mod(h, math.Pi)))
		return a.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapsWraparound(t *testing.T) {
	// Arcs at 5° and 355° with 10° half widths overlap across 0.
	a := NewArc(5*math.Pi/180, 10*math.Pi/180)
	b := NewArc(355*math.Pi/180, 10*math.Pi/180)
	if !a.Overlaps(b) {
		t.Error("wraparound arcs should overlap")
	}
	// Same centers with 3° half-widths do not (gap is 10°, sum is 6°).
	c := NewArc(5*math.Pi/180, 3*math.Pi/180)
	d := NewArc(355*math.Pi/180, 3*math.Pi/180)
	if c.Overlaps(d) {
		t.Error("narrow wraparound arcs should not overlap")
	}
}

func TestDisjointArcs(t *testing.T) {
	a := NewArc(0, 0.1)
	b := NewArc(math.Pi, 0.1)
	if a.Overlaps(b) {
		t.Error("opposite arcs should not overlap")
	}
	if w := a.OverlapWidth(b); w != 0 {
		t.Errorf("OverlapWidth of disjoint arcs = %v", w)
	}
}

func TestOverlapWidthNested(t *testing.T) {
	outer := NewArc(1, 0.5)
	inner := NewArc(1, 0.1)
	if w := outer.OverlapWidth(inner); !almostEq(w, inner.Width()) {
		t.Errorf("nested overlap = %v, want %v", w, inner.Width())
	}
}

func TestOverlapWidthPartial(t *testing.T) {
	a := NewArc(0, 0.3)
	b := NewArc(0.4, 0.3) // gap 0.4, sum 0.6 -> overlap 0.2
	if w := a.OverlapWidth(b); !almostEq(w, 0.2) {
		t.Errorf("partial overlap = %v, want 0.2", w)
	}
}

func TestOverlapWidthFull(t *testing.T) {
	full := Arc{Center: 0, HalfWidth: math.Pi}
	b := NewArc(2, 0.25)
	if w := full.OverlapWidth(b); !almostEq(w, b.Width()) {
		t.Errorf("full-arc overlap = %v, want %v", w, b.Width())
	}
	if w := b.OverlapWidth(full); !almostEq(w, b.Width()) {
		t.Errorf("overlap with full arc = %v, want %v", w, b.Width())
	}
}

func TestContainsBoundary(t *testing.T) {
	a := NewArc(1, 0.5)
	if !a.Contains(1.5) {
		t.Error("boundary azimuth should be contained")
	}
	if a.Contains(1.6) {
		t.Error("azimuth outside arc reported contained")
	}
}

// Property: the overlap predicate agrees with a positive overlap width.
func TestOverlapsConsistentWithWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := NewArc(rng.Float64()*2*math.Pi, rng.Float64()*1.5)
		b := NewArc(rng.Float64()*2*math.Pi, rng.Float64()*1.5)
		w := a.OverlapWidth(b)
		if a.Overlaps(b) != (w > -1e-9) && w > 1e-9 {
			t.Fatalf("inconsistent overlap for %v %v: width=%v overlaps=%v", a, b, w, a.Overlaps(b))
		}
		if w > 1e-9 && !a.Overlaps(b) {
			t.Fatalf("positive width %v but Overlaps=false for %v %v", w, a, b)
		}
	}
}

// Property: moving a disk farther from the eye shrinks its arc.
func TestArcShrinksWithDistance(t *testing.T) {
	eye := Vec2{0, 0}
	prev := math.Pi
	for d := 0.6; d < 50; d += 0.5 {
		a, _ := ArcOf(eye, Vec2{d, 0}, 0.5)
		if a.HalfWidth > prev+eps {
			t.Fatalf("arc grew with distance at d=%v", d)
		}
		prev = a.HalfWidth
	}
}
