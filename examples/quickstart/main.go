// Quickstart: generate a small social XR room, train POSHGNN on it, and
// stream per-step rendering recommendations for one target user.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"after"
)

func main() {
	// A compact SMM-flavoured conference: 25 users, 40 simulated steps.
	room, err := after.GenerateRoom(after.DatasetConfig{
		Kind:      after.SMM,
		RoomUsers: 25,
		T:         40,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("room: %d users (%d co-located MR), %d friendships, %d steps\n",
		room.N, room.MRCount(), room.Graph.EdgeCount(), room.T())

	// Train the full POSHGNN (MIA + PDR + LWP) on two targets of this room.
	cfg := after.DefaultModelConfig()
	cfg.Epochs = 4
	model := after.NewPOSHGNN(cfg)
	stats, err := model.Train([]after.Episode{
		{Room: room, Target: 0},
		{Room: room, Target: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	losses := make([]float64, len(stats.Epochs))
	for i, es := range stats.Epochs {
		losses[i] = float64(int(es.Loss*1000)) / 1000
	}
	fmt.Printf("trained: per-epoch POSHGNN loss %v\n\n", losses)

	// Stream recommendations for target user 3.
	const target = 3
	dog := after.BuildDOG(target, room.Traj, room.AvatarRadius)
	sess := model.StartEpisode(room, target)
	for t := 0; t <= room.T(); t += 8 {
		rendered := sess.Step(t, dog.At(t))
		fmt.Printf("t=%2d render:", t)
		for w, on := range rendered {
			if on {
				tag := ""
				if room.Social(target, w) > 0.4 {
					tag = "*" // a friend
				}
				fmt.Printf(" %d%s", w, tag)
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(* marks the target's friends; POSHGNN keeps them on screen across steps)")

	// Score the whole episode against the simplest alternatives.
	results, err := after.Evaluate([]after.Recommender{
		after.AsRecommender(model, "POSHGNN"),
		after.NewNearestBaseline(8),
		after.NewRandomBaseline(8, 1),
	}, room, []int{target}, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nepisode totals (AFTER utility, Definition 2):")
	for _, name := range []string{"POSHGNN", "Nearest", "Random"} {
		r := results[name]
		fmt.Printf("  %-8s utility=%6.2f preference=%6.2f social=%6.2f occlusion=%.0f%%\n",
			name, r.Utility, r.Preference, r.Social, 100*r.OcclusionRate)
	}
}
