//go:build race

package pipeline

// See race_off_test.go.
const raceEnabled = true
