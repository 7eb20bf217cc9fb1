package nsmodel

import "fmt"

// ProcFS provides the procfs-style lookups the extended CXI driver performs:
// reading /proc/<pid>/ns/net to learn a caller's network-namespace inode
// (paper §III-A: "This ID corresponds to the inode of the associated network
// namespace file and can be retrieved using procfs").
type ProcFS struct {
	k *Kernel
}

// Proc returns the procfs view of the kernel.
func (k *Kernel) Proc() *ProcFS { return &ProcFS{k: k} }

// NetNSInode returns the inode of /proc/<pid>/ns/net.
func (f *ProcFS) NetNSInode(pid PID) (Inode, error) {
	f.k.mu.Lock()
	defer f.k.mu.Unlock()
	p, ok := f.k.procs[pid]
	if !ok || p.exited {
		return InvalidInode, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	return p.NetNS, nil
}

// Status mirrors the UID/GID lines of /proc/<pid>/status as seen from the
// host: real (inside) and host-translated credentials.
type Status struct {
	PID      PID
	Name     string
	UID      UID // credential inside the process's userns
	GID      GID
	HostUID  UID // credential after userns translation
	HostGID  GID
	NetNS    Inode
	UserNS   Inode
	HostUser bool // true if the process is in the initial userns
}

// ReadStatus returns the status of a live process.
func (f *ProcFS) ReadStatus(pid PID) (Status, error) {
	f.k.mu.Lock()
	defer f.k.mu.Unlock()
	p, ok := f.k.procs[pid]
	if !ok || p.exited {
		return Status{}, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	u := f.k.userns[p.UserNS]
	return Status{
		PID: p.PID, Name: p.Name,
		UID: p.UID, GID: p.GID,
		HostUID: u.MapUID(p.UID), HostGID: u.MapGID(p.GID),
		NetNS: p.NetNS, UserNS: p.UserNS, HostUser: u.host,
	}, nil
}
