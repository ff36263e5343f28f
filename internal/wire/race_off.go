//go:build !race

package wire

// RaceEnabled reports that the race detector is instrumenting this
// build.
const RaceEnabled = false

// poison is the -race build's frame-ownership check; it costs nothing
// here.
func poison([]byte) {}
