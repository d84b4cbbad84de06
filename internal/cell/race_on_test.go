//go:build race

package cell

// raceEnabled reports that the race detector is active; its
// instrumentation allocates inside sync.Pool and closures, so
// allocation-contract tests are skipped under -race.
const raceEnabled = true
