//go:build race

package shsk8s

// raceEnabled: the race detector makes sync.Pool drop objects at random,
// so allocation counts that are constants without it are not under it.
const raceEnabled = true
