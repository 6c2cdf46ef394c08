package sim_test

// The quality layer carries the same observer-never-participant contract as
// obs: enabling it must not move a single bit of any evaluation result, with
// one worker or many, and a recorded run must leave attribution totals in the
// collector that match the scored utilities exactly.

import (
	"testing"

	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/obs/quality"
	"after/internal/parallel"
	"after/internal/sim"
)

// TestQualityNeutrality: bare vs quality-recorded runs are bit-identical
// (StepTime excluded, as it measures wall clock).
func TestQualityNeutrality(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(false))
	defer quality.SetEnabled(quality.SetEnabled(false))

	bare := runEval(t, 1)

	obs.SetEnabled(true)
	quality.SetEnabled(true)
	obs.Default().Reset()
	quality.Default().Reset()
	defer quality.Default().Reset()
	rec := runEval(t, 1)
	recPar := runEval(t, 8)

	for name, b := range bare {
		if rec[name] != b {
			t.Errorf("%s: quality-recorded %+v != bare %+v", name, rec[name], b)
		}
		if recPar[name] != b {
			t.Errorf("%s: quality-recorded parallel %+v != bare %+v", name, recPar[name], b)
		}
	}
}

// TestQualityHookRecords: an enabled evaluation populates the collector, and
// the accumulated attribution equals the summed scored utilities bit for bit
// (both sides accumulate per-episode in the same order under 1 worker).
func TestQualityHookRecords(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	defer quality.SetEnabled(quality.SetEnabled(true))
	obs.Default().Reset()
	quality.Default().Reset()
	defer quality.Default().Reset()

	room := determinismRoom(t)
	targets := sim.DefaultTargets(room, 3)
	recs := determinismRecs()
	var results map[string]metrics.Result
	var err error
	parallel.WithLimit(1, func() {
		results, err = sim.Evaluate(recs, room, targets, 0.5)
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := quality.Default().Snapshot()
	for name, res := range results {
		rr, ok := snap.Recommenders[name]
		if !ok {
			t.Errorf("%s missing from quality snapshot", name)
			continue
		}
		if rr.Episodes != len(targets) {
			t.Errorf("%s: %d episodes recorded, want %d", name, rr.Episodes, len(targets))
		}
		// Evaluate reports the mean over targets; the collector accumulates
		// the sum. mean*len is not bitwise-safe, so check the other way:
		// collector total / episodes vs reported mean within float dust.
		mean := rr.Attribution.Total / float64(rr.Episodes)
		if diff := mean - res.Utility; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: attribution mean %v vs scored mean %v", name, mean, res.Utility)
		}
		if rr.Regret.Steps != rr.Steps {
			t.Errorf("%s: regret covers %d of %d steps", name, rr.Regret.Steps, rr.Steps)
		}
	}
}
