//go:build race

package wire

// RaceEnabled reports that the race detector is instrumenting this
// build. The allocation-budget tests skip themselves under it (the
// detector allocates on its own and sync.Pool drops items at random).
const RaceEnabled = true

// poison overwrites a buffer that is about to be pooled, so a reader
// that kept a frame past its owner's Put sees 0xDB instead of the bytes
// it expects (see the ownership rules in pool.go).
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
