//go:build !race

package shsk8s

const raceEnabled = false
