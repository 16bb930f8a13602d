//go:build race

package diffprop

// raceEnabled reports that the race detector instruments this test binary.
// BDD work runs an order of magnitude slower under it, so the exhaustive
// exactness sweeps keep to the circuits that exercise the concurrency.
const raceEnabled = true
