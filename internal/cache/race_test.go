//go:build race

package cache_test

// raceEnabled reports a -race build, which slows the oracle's
// single-goroutine simulation loops about twentyfold while giving the
// race detector nothing to check in them.
const raceEnabled = true
