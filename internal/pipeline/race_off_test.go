//go:build !race

package pipeline

// raceEnabled reports whether the race detector is compiled in; the
// allocation-bound tests skip under it because the race runtime adds its
// own allocations to testing.AllocsPerRun.
const raceEnabled = false
