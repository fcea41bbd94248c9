//go:build race

package transport

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a quarter of its Puts on purpose, so tests asserting that a pooled path
// allocates nothing cannot hold and skip themselves.
const raceEnabled = true
