//go:build race

package bench

// See race_off_test.go.
const raceEnabled = true
