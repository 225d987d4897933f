//go:build race

package engine

// raceEnabled reports a -race build, under which sync.Pool drops a random
// quarter of what it is handed: a budget that counts on reuse cannot hold.
const raceEnabled = true
