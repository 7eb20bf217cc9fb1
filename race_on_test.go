//go:build race

package shsk8s

// raceEnabled: the race detector makes sync.Pool drop objects at random,
// so an allocation count with a pool on its path is not a constant under
// it. The control plane has the standard library's (fmt's printer pool,
// under its name formatting); the data path has none, which is why
// TestCollectiveAllocBudget does not take this skip.
const raceEnabled = true
