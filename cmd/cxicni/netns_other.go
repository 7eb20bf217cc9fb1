//go:build !linux

package main

import "fmt"

// netnsInode has no namespace to resolve off Linux, so every ADD fails
// closed there.
func netnsInode(path string) (uint64, error) {
	return 0, fmt.Errorf("netns path %s: network namespaces are a Linux feature", path)
}
