//go:build !race

package server

// raceEnabled reports a build under the race detector, whose
// instrumentation allocates bytes of its own.
const raceEnabled = false
