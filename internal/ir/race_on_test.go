//go:build race

package ir_test

// See race_off_test.go.
const raceEnabled = true
