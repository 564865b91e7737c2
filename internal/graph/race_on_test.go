//go:build race

package graph_test

// raceEnabled skips timing-sensitive gate tests under the race detector,
// whose instrumentation flattens the parallel/serial ratio they assert.
const raceEnabled = true
