//go:build !race

package ir_test

// raceEnabled reports whether the race detector is on; the slowest
// differential tests draw fewer cases under it.
const raceEnabled = false
