//go:build race

package scenario

// raceEnabled reports a -race build, whose detector changes what a run
// allocates.
const raceEnabled = true
