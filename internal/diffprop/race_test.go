//go:build race

package diffprop

// raceEnabled reports that the race detector instruments this test binary.
// BDD work runs an order of magnitude slower under it, so the exhaustive
// exactness sweep leaves out c1355s, the one circuit that would add only
// BDD work.
const raceEnabled = true
