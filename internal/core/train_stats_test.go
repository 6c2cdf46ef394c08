package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"after/internal/obs"
)

// TestTrainEpochStats checks the per-epoch curve attached to TrainStats: one
// record per epoch, tagged with the candidate's (alpha, seed), with measured
// durations and finite grad norms.
func TestTrainEpochStats(t *testing.T) {
	room := movingRoom(20, 3)
	cfg := Config{UseMIA: true, UseLWP: true, Epochs: 3, Seed: 9, Alpha: 0.1}
	m := New(cfg)
	stats, err := m.Train([]Episode{{Room: room, Target: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Epochs) != cfg.Epochs {
		t.Fatalf("Epochs has %d records, want %d", len(stats.Epochs), cfg.Epochs)
	}
	for i, es := range stats.Epochs {
		if es.Epoch != i {
			t.Errorf("epoch record %d claims index %d", i, es.Epoch)
		}
		if es.Alpha != cfg.Alpha || es.Seed != cfg.Seed {
			t.Errorf("epoch %d tagged (alpha=%v seed=%d), want (%v, %d)", i, es.Alpha, es.Seed, cfg.Alpha, cfg.Seed)
		}
		if es.GradNorm <= 0 {
			t.Errorf("epoch %d grad norm %v, want > 0", i, es.GradNorm)
		}
		if es.DurationMs <= 0 {
			t.Errorf("epoch %d duration %v ms, want > 0", i, es.DurationMs)
		}
	}
}

// TestTrainCurveJSONL installs a curve sink and checks Train emits one valid
// JSONL record per epoch matching the returned stats.
func TestTrainCurveJSONL(t *testing.T) {
	var buf bytes.Buffer
	obs.SetCurveWriter(&buf)
	defer obs.SetCurveWriter(nil)

	room := movingRoom(15, 3)
	m := New(Config{UseMIA: true, UseLWP: true, Epochs: 2, Seed: 4})
	stats, err := m.Train([]Episode{{Room: room, Target: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var got []EpochStats
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var es EpochStats
		if err := json.Unmarshal(sc.Bytes(), &es); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, es)
	}
	if len(got) != len(stats.Epochs) {
		t.Fatalf("curve sink saw %d records, stats has %d", len(got), len(stats.Epochs))
	}
	for i := range got {
		if got[i] != stats.Epochs[i] {
			t.Errorf("record %d: sink %+v != stats %+v", i, got[i], stats.Epochs[i])
		}
	}
}
