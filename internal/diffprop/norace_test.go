//go:build !race

package diffprop

// raceEnabled reports that the race detector instruments this test binary.
const raceEnabled = false
