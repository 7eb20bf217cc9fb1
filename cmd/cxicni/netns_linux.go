//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
)

// nsGetNSType is the nsfs ioctl NS_GET_NSTYPE (Linux 4.11+): it returns the
// CLONE_NEW* flag of the namespace an open nsfs file refers to.
const nsGetNSType = 0xb703

// netnsInode resolves CNI_NETNS: it opens the netns path — /proc/<pid>/ns/net,
// or a bind mount under /var/run/netns — has the kernel confirm that it
// refers to a network namespace, and returns that namespace's inode, the
// number CXI service membership is keyed on. There is no fallback: a service
// whose member is a number no process holds would fail open.
func netnsInode(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kind, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), nsGetNSType, 0)
	if errno != 0 {
		return 0, fmt.Errorf("%s is not a namespace: %v", path, errno)
	}
	if kind != syscall.CLONE_NEWNET {
		return 0, fmt.Errorf("%s is not a network namespace", path)
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return 0, err
	}
	return uint64(st.Ino), nil
}
