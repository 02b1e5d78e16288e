//go:build race

package stablelog_test

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates and breaks zero-allocation gates.
const raceEnabled = true
