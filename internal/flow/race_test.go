//go:build race

package flow

// raceEnabled reports a -race build: the race runtime slows the solver
// some fifteen-fold, so the transient-heaviest cases stay off it.
const raceEnabled = true
