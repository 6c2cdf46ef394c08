package dataset

import (
	"bytes"
	"testing"

	"after/internal/occlusion"
)

// FuzzReadRoom decodes fuzzed gob bytes. ReadRoom must return an error or a
// room that passes Validate, never panic, and a room it returns must be safe
// to hand to the occlusion converter.
func FuzzReadRoom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadRoom(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ReadRoom returned a room that fails Validate: %v", err)
		}
		occlusion.BuildStatic(0, r.Traj.Pos[0], r.AvatarRadius)
	})
}
