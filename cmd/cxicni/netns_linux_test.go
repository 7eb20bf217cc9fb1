//go:build linux

package main

import (
	"syscall"
	"testing"
)

// TestServiceMemberIsTheNetnsInode: the binding an ADD records for a real
// netns path names that namespace's inode, the number a CXI service matches
// a calling process's netns against, and a namespace of another type is
// refused.
func TestServiceMemberIsTheNetnsInode(t *testing.T) {
	const path = "/proc/self/ns/net"
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		t.Skipf("no %s: %v", path, err)
	}
	inode, err := netnsInode(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CXICNI_STATE_DIR", t.TempDir())
	if _, err := stateCreateService("ctr", inode, 4242); err != nil {
		t.Fatal(err)
	}
	b, err := readBinding("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if b.NetNSInode != uint64(st.Ino) {
		t.Errorf("service member is netns %d, %s is inode %d", b.NetNSInode, path, st.Ino)
	}
	if got, err := netnsInode("/proc/self/ns/user"); err == nil {
		t.Errorf("a user namespace resolved as netns %d", got)
	}
}
