//go:build race

package scenario

// raceEnabled: the race detector makes sync.Pool drop objects at random,
// and fmt's printer comes from one, so a narration line's allocation count
// is not a constant under it.
const raceEnabled = true
