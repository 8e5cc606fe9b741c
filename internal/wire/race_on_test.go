//go:build race

package wire_test

// raceEnabled reports whether the race detector instruments this binary:
// under it sync.Pool drops items at random, so pins on pooled paths skip.
const raceEnabled = true
