package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"after/internal/chaos"
	"after/internal/core"
	"after/internal/obs"
	"after/internal/obs/prof"
	"after/internal/obs/prof/proftest"
	"after/internal/occlusion"
	"after/internal/sim"
)

// TestStepWrappersKeepBatchAndCarriers pins the shared step wrapper as the
// serve sweep stacks it (chaos over pacing over POSHGNN): the result is
// still a sim.BatchRecommender under the primary's name, and SetTraceParent
// and SetProfLabels on its batch stepper reach the inner core.BatchSession —
// the fused pass's batch.step span is parented under the given span, and the
// caller is left on the session's (room, rec) profiling labels.
func TestStepWrappersKeepBatchAndCarriers(t *testing.T) {
	room := scaleRoom(12, 2, 5)
	m := core.New(core.Config{UseMIA: true, UseLWP: true, Seed: 1})
	rec := chaos.WrapRecommender(paced(POSHGNNRec(m, "POSHGNN"), 0), chaos.Config{Seed: 3})
	br, ok := rec.(sim.BatchRecommender)
	if !ok {
		t.Fatal("wrapped POSHGNN is no longer a sim.BatchRecommender")
	}
	if rec.Name() != "POSHGNN" {
		t.Fatalf("wrapper renamed the recommender to %q", rec.Name())
	}

	prevObs, prevTrace, prevProf := obs.SetEnabled(true), obs.SetTracing(true), prof.SetEnabled(true)
	defer func() {
		prof.Clear()
		obs.SetEnabled(prevObs)
		obs.SetTracing(prevTrace)
		prof.SetEnabled(prevProf)
	}()
	prof.Clear()

	bs := br.StartBatch(room)
	parent := obs.Begin("test.parent")
	bs.(sim.TraceCarrier).SetTraceParent(parent.ID())
	bs.(prof.Carrier).SetProfLabels(prof.NewLabels("roomW", "POSHGNN"))
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	bs.StepTargets(0, []int{0}, []*occlusion.StaticGraph{dog.Frames[0]})
	parent.End()

	var buf bytes.Buffer
	if err := obs.DefaultTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	parented := false
	for _, ev := range doc.TraceEvents {
		if p, _ := ev.Args["parent"].(float64); ev.Name == "batch.step" && uint64(p) == uint64(parent.ID()) {
			parented = true
		}
	}
	if !parented {
		t.Error("no batch.step span parented under the span given to the wrapper")
	}

	gs, err := proftest.Goroutines()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if strings.Contains(g.Stack, "TestStepWrappersKeepBatchAndCarriers") {
			if got := g.Labels["room"]; got != "roomW" {
				t.Errorf("profiling labels did not reach the BatchSession: caller labeled room=%q", got)
			}
			return
		}
	}
	t.Skip("test goroutine not found in goroutine profile")
}
