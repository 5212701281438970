//go:build !race

package bench

// raceEnabled reports whether the race detector is compiled in; the
// allocation bounds skip under it because the race runtime adds its own
// allocations to testing.AllocsPerRun.
const raceEnabled = false
