//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation counts only hold uninstrumented.
const raceEnabled = true
