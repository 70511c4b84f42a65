//go:build race

package index

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// handed, so allocation counts say nothing about the steady state.
const raceEnabled = true
