package sim

import (
	"after/internal/dataset"
	"after/internal/obs"
	"after/internal/occlusion"
)

// BatchStepper steps many targets of one room through a single fused forward
// pass per frame. targets[i] pairs with frames[i] (that target's static graph
// at step t); the returned slice has one rendered set per input, in order.
// The membership of the batch may change between calls — per-target recurrent
// state follows the target, not its batch position.
type BatchStepper interface {
	StepTargets(t int, targets []int, frames []*occlusion.StaticGraph) [][]bool
}

// TraceCarrier is the optional trace-propagation capability: a stepper (or a
// wrapper around one) that can parent its internal spans under a caller's
// span. The serve micro-batcher sets its batch span as the parent before
// each fused pass so the core forward's phase spans hang off the request
// trace. A wrapper that delegates stepping must forward this too, or the
// chain breaks at the wrapper — and the same goes for prof.Carrier, the
// profiling twin of this interface (continuous-profiler label threading).
// WrapSteps forwards both.
type TraceCarrier interface {
	SetTraceParent(parent obs.SpanID)
}

// BatchRecommender is a Recommender whose model can serve a whole room at
// once: StartBatch returns one shared session that amortizes the per-room
// portion of the forward pass (aggregation, message passing) across every
// target in the batch. Evaluate starts one session per worker, each over a
// contiguous block of the targets, so one recommender's sessions step
// concurrently. StepTargets for a single target must be output-identical to
// the Stepper from StartEpisode — the harness, the serve path, and the
// property tests all rely on batch width being invisible in the output.
type BatchRecommender interface {
	Recommender
	StartBatch(room *dataset.Room) BatchStepper
}

// RunBatchedEpisodes drives every dog through one fused batch session and
// scores each target's trace, returning results in dog order. All dogs must
// come from the same trajectory (equal frame counts). StepTime in each result
// is the amortized per-target latency: fused wall time ÷ batch width.
func RunBatchedEpisodes(rec BatchRecommender, room *dataset.Room, dogs []*occlusion.DOG, beta float64) ([]EpisodeResult, error) {
	targets, err := episodeTargets(room, dogs)
	if err != nil {
		return nil, err
	}
	stepper := rec.StartBatch(room)
	out, _, err := runEpisodes(rec.Name(), room, dogs, targets, beta, stepper, stepper.StepTargets)
	return out, err
}
