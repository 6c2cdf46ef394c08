package metrics

import (
	"fmt"

	"after/internal/dataset"
	"after/internal/occlusion"
)

// StepAttribution decomposes one step's realized utility into the three
// forces the AFTER objective blends (Definition 2): the preference term, the
// consecutive-step social-presence term, and the occlusion gate that
// suppresses both.
//
// Pref and Social are the *realized* weighted components — Pref is
// (1-β)·Σ p(v,w) over visible rendered users, Social is β·Σ s(v,w) over
// users visible in both this and the previous step — and Total = Pref +
// Social is computed as exactly that sum, so the two components sum
// bit-identically to the step utility by construction. Gate is the utility
// forfeited to the occlusion gate: the same weighted contributions of users
// that were rendered but occluded by another present user's image (they
// never entered Total). Pref + Social + Gate is therefore the step's
// "ungated potential" — what the rendered set would have scored on an
// occlusion-free viewport.
type StepAttribution struct {
	Pref   float64 // realized (1-β)-weighted preference component
	Social float64 // realized β-weighted social-presence component
	Gate   float64 // utility suppressed by the occlusion gate (≥ 0)
	Total  float64 // Pref + Social, the realized step utility
	// GatedUsers counts rendered-but-occluded users this step (the gate's
	// victims; the numerator of a per-step "how much did occlusion bite"
	// diagnostic).
	GatedUsers int
}

// Attribution is the episode-level decomposition: component accumulators run
// over the exact (t, w) visitation order Score uses, so the episode identity
// is bitwise, not approximate:
//
//	Pref   == (1-β) · Result.Preference   (same float op)
//	Social == β · Result.Social           (same float op)
//	Total  == Pref + Social == Result.Utility  (Score's own final expression)
//
// Gate accumulates the suppressed contributions the same way.
type Attribution struct {
	Pref   float64
	Social float64
	Gate   float64
	Total  float64
	// GatedUsers is the episode total of rendered-but-occluded user-steps.
	GatedUsers int
	// Steps holds the per-step decomposition, the input series for drift
	// detectors and sparkline dashboards.
	Steps []StepAttribution
}

// Attribute decomposes a rendering trace's utility per step and over the
// episode. The iteration mirrors Score exactly (same visibility indicator,
// same skip conditions, same accumulation order), which is what makes the
// episode components bit-identical to the scored totals; tests enforce the
// identity with ==, not a tolerance.
func Attribute(room *dataset.Room, dog *occlusion.DOG, rendered [][]bool, beta float64) (Attribution, error) {
	if len(rendered) != len(dog.Frames) {
		return Attribution{}, fmt.Errorf("metrics: %d rendered sets for %d frames", len(rendered), len(dog.Frames))
	}
	if beta < 0 || beta > 1 {
		return Attribution{}, fmt.Errorf("metrics: beta %v out of [0,1]", beta)
	}
	target := dog.Target
	att := Attribution{Steps: make([]StepAttribution, len(dog.Frames))}
	// Episode-level raw accumulators (unweighted, Score's own quantities).
	var prefRaw, socialRaw, gatePrefRaw, gateSocialRaw float64
	prevVisible := make([]bool, room.N)
	curVisible := make([]bool, room.N)
	present := make([]bool, room.N)
	for t, frame := range dog.Frames {
		r := rendered[t]
		if len(r) != room.N {
			return Attribution{}, fmt.Errorf("metrics: rendered[%d] has %d entries, want %d", t, len(r), room.N)
		}
		visible := frame.VisibleSetInto(curVisible, present, r, room.Interfaces)
		var sPref, sSocial, sGatePref, sGateSocial float64
		gated := 0
		for w := 0; w < room.N; w++ {
			if w == target || !r[w] {
				continue
			}
			if visible[w] {
				p := room.Pref(target, w)
				prefRaw += p
				sPref += p
				if prevVisible[w] {
					s := room.Social(target, w)
					socialRaw += s
					sSocial += s
				}
				continue
			}
			// Rendered but not visible. PresentSetInto marks every rendered user
			// present, so the only way to be invisible is the occlusion gate:
			// another present user's image overlaps this one.
			gated++
			p := room.Pref(target, w)
			gatePrefRaw += p
			sGatePref += p
			if prevVisible[w] {
				s := room.Social(target, w)
				gateSocialRaw += s
				sGateSocial += s
			}
		}
		sa := StepAttribution{
			Pref:       (1 - beta) * sPref,
			Social:     beta * sSocial,
			Gate:       (1-beta)*sGatePref + beta*sGateSocial,
			GatedUsers: gated,
		}
		sa.Total = sa.Pref + sa.Social
		att.Steps[t] = sa
		att.GatedUsers += gated
		prevVisible, curVisible = visible, prevVisible
	}
	// The exact expressions Score uses for Utility — a single weighted
	// multiply per raw component and one add — so the components reproduce
	// Result.Utility bit for bit.
	att.Pref = (1 - beta) * prefRaw
	att.Social = beta * socialRaw
	att.Total = att.Pref + att.Social
	att.Gate = (1-beta)*gatePrefRaw + beta*gateSocialRaw
	return att, nil
}

// ChurnSeries returns the per-step render-set turnover of a trace: for each
// step t ≥ 1, the Jaccard distance between consecutive rendered sets
// (symmetric difference over union; 0 = perfectly stable, 1 = complete
// turnover). Steps where both sets are empty score 0 — no set, no churn —
// and churn[0] is 0 by convention (there is no predecessor). The mean over
// steps with a non-empty union equals Result.Churn from Score.
func ChurnSeries(rendered [][]bool) []float64 {
	churn := make([]float64, len(rendered))
	for t := 1; t < len(rendered); t++ {
		prev, cur := rendered[t-1], rendered[t]
		n := len(cur)
		if len(prev) < n {
			n = len(prev)
		}
		diff, union := 0, 0
		for w := 0; w < n; w++ {
			if cur[w] || prev[w] {
				union++
				if cur[w] != prev[w] {
					diff++
				}
			}
		}
		if union > 0 {
			churn[t] = float64(diff) / float64(union)
		}
	}
	return churn
}
