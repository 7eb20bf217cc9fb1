// Package nsmodel simulates the subset of the Linux kernel's namespace
// machinery that the Slingshot multi-tenancy work depends on: network
// namespaces identified by unique inode numbers, user namespaces with
// UID/GID mappings, processes bound to namespaces, and the procfs lookup a
// driver performs to learn the netns inode of a calling process.
//
// The security-relevant invariants mirrored from the kernel are:
//
//   - Every network namespace has a unique, kernel-assigned inode number
//     that a process cannot choose or change (see the paper, §III-A: "Since
//     network namespaces are governed outside of application control,
//     malicious users inside a container cannot modify their network
//     namespace ID").
//   - A process resides in exactly one network namespace at a time; moving
//     requires a privileged Setns operation.
//   - Inside a user namespace a process may assume any UID/GID it likes
//     (that is exactly the attack the paper defends against); the mapping
//     to host IDs is fixed at namespace creation.
package nsmodel

import (
	"errors"
	"fmt"
	"maps"
	"sync"
)

// Inode identifies a namespace, mirroring the inode of
// /proc/<pid>/ns/net on a real system.
type Inode uint64

// PID identifies a simulated process.
type PID int

// UID and GID are Linux user/group IDs.
type (
	UID uint32
	GID uint32
)

// InvalidInode is never assigned to a namespace.
const InvalidInode Inode = 0

// Errors returned by Kernel operations.
var (
	ErrNoSuchProcess   = errors.New("nsmodel: no such process")
	ErrNoSuchNamespace = errors.New("nsmodel: no such namespace")
	ErrPermission      = errors.New("nsmodel: operation not permitted")
	ErrNamespaceBusy   = errors.New("nsmodel: namespace has attached processes")
)

// NetNamespace is a network namespace. Network devices and Slingshot CXI
// services attach to namespaces through their inode.
type NetNamespace struct {
	Inode Inode
	Name  string // diagnostic label, e.g. "host" or a container ID
}

// UserNamespace maps container-local UIDs/GIDs to host ones. The zero-length
// mapping denotes the initial (host) user namespace where IDs are identity.
type UserNamespace struct {
	Inode Inode
	Name  string
	// uidMap maps inside-UID -> host UID. Host userns has the empty map.
	uidMap idMap[UID]
	gidMap idMap[GID]
	host   bool
}

// idMap is one ID mapping of a user namespace, copied at creation. A
// container maps one ID — its root, shifted — and that entry sits in the
// struct; a mapping with more entries is a map.
type idMap[T comparable] struct {
	in, host T
	mapped   bool
	more     map[T]T
}

func newIDMap[T comparable](src map[T]T) (m idMap[T]) {
	if len(src) > 1 {
		return idMap[T]{more: maps.Clone(src)}
	}
	for m.in, m.host = range src {
		m.mapped = true
	}
	return m
}

// translate maps an inside ID to the host's; unmapped IDs become overflow.
func (m idMap[T]) translate(in, overflow T) T {
	if m.mapped && m.in == in {
		return m.host
	}
	if host, ok := m.more[in]; ok {
		return host
	}
	return overflow
}

// MapUID translates an inside-namespace UID to the host UID. Unmapped IDs
// translate to the kernel's overflow UID (65534, "nobody"), as on Linux.
func (u *UserNamespace) MapUID(inside UID) UID {
	if u.host {
		return inside
	}
	return u.uidMap.translate(inside, 65534)
}

// MapGID translates an inside-namespace GID to the host GID.
func (u *UserNamespace) MapGID(inside GID) GID {
	if u.host {
		return inside
	}
	return u.gidMap.translate(inside, 65534)
}

// IsHost reports whether this is the initial user namespace.
func (u *UserNamespace) IsHost() bool { return u.host }

// Process is a simulated process. UID/GID are the credentials as seen
// *inside* the process's user namespace; the kernel translates them when a
// driver asks.
type Process struct {
	PID     PID
	UID     UID
	GID     GID
	NetNS   Inode
	UserNS  Inode
	Name    string
	exited  bool
	kernel  *Kernel
	mu      sync.Mutex
	cleanup []func()
}

// Kernel is the simulated namespace registry. It is safe for concurrent use.
type Kernel struct {
	mu        sync.Mutex
	nextInode Inode
	nextPID   PID
	netns     map[Inode]*NetNamespace
	userns    map[Inode]*UserNamespace
	procs     map[PID]*Process
	hostNet   Inode
	hostUser  Inode
}

// NewKernel creates a kernel with the initial (host) network and user
// namespaces and PID 1.
func NewKernel() *Kernel {
	k := &Kernel{
		nextInode: 0x1_0000_0000, // resemble real netns inode magnitudes
		nextPID:   1,
		netns:     make(map[Inode]*NetNamespace),
		userns:    make(map[Inode]*UserNamespace),
		procs:     make(map[PID]*Process),
	}
	hn := k.newNetNSLocked("host")
	hu := &UserNamespace{Inode: k.allocInodeLocked(), Name: "host", host: true}
	k.userns[hu.Inode] = hu
	k.hostNet = hn.Inode
	k.hostUser = hu.Inode
	return k
}

func (k *Kernel) allocInodeLocked() Inode {
	k.nextInode++
	return k.nextInode
}

func (k *Kernel) newNetNSLocked(name string) *NetNamespace {
	ns := &NetNamespace{Inode: k.allocInodeLocked(), Name: name}
	k.netns[ns.Inode] = ns
	return ns
}

// HostNetNS returns the inode of the initial network namespace.
func (k *Kernel) HostNetNS() Inode { k.mu.Lock(); defer k.mu.Unlock(); return k.hostNet }

// HostUserNS returns the inode of the initial user namespace.
func (k *Kernel) HostUserNS() Inode { k.mu.Lock(); defer k.mu.Unlock(); return k.hostUser }

// NewNetNS creates a fresh network namespace, as the container runtime does
// for each new pod sandbox.
func (k *Kernel) NewNetNS(name string) *NetNamespace {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.newNetNSLocked(name)
}

// NewUserNS creates a user namespace with the given UID/GID mappings
// (inside -> host). Nil maps create an empty mapping (everything becomes the
// overflow ID), matching an unconfigured userns.
func (k *Kernel) NewUserNS(name string, uidMap map[UID]UID, gidMap map[GID]GID) *UserNamespace {
	k.mu.Lock()
	defer k.mu.Unlock()
	u := &UserNamespace{
		Inode:  k.allocInodeLocked(),
		Name:   name,
		uidMap: newIDMap(uidMap),
		gidMap: newIDMap(gidMap),
	}
	k.userns[u.Inode] = u
	return u
}

// DeleteNetNS removes a network namespace. It fails with ErrNamespaceBusy
// while live processes remain inside, mirroring the kernel's refcounting.
func (k *Kernel) DeleteNetNS(ino Inode) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.netns[ino]; !ok {
		return fmt.Errorf("%w: netns %d", ErrNoSuchNamespace, ino)
	}
	if ino == k.hostNet {
		return fmt.Errorf("%w: cannot delete host netns", ErrPermission)
	}
	for _, p := range k.procs {
		if !p.exited && p.NetNS == ino {
			return fmt.Errorf("%w: netns %d (pid %d)", ErrNamespaceBusy, ino, p.PID)
		}
	}
	delete(k.netns, ino)
	return nil
}

// NetNS looks up a network namespace by inode.
func (k *Kernel) NetNS(ino Inode) (*NetNamespace, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	ns, ok := k.netns[ino]
	return ns, ok
}

// UserNS looks up a user namespace by inode.
func (k *Kernel) UserNS(ino Inode) (*UserNamespace, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	ns, ok := k.userns[ino]
	return ns, ok
}

// Spawn creates a process in the given namespaces. Zero inodes select the
// host namespaces.
func (k *Kernel) Spawn(name string, uid UID, gid GID, netns, userns Inode) (*Process, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if netns == 0 {
		netns = k.hostNet
	}
	if userns == 0 {
		userns = k.hostUser
	}
	if _, ok := k.netns[netns]; !ok {
		return nil, fmt.Errorf("%w: netns %d", ErrNoSuchNamespace, netns)
	}
	if _, ok := k.userns[userns]; !ok {
		return nil, fmt.Errorf("%w: userns %d", ErrNoSuchNamespace, userns)
	}
	p := &Process{PID: k.nextPID, UID: uid, GID: gid, NetNS: netns, UserNS: userns, Name: name, kernel: k}
	k.nextPID++
	k.procs[p.PID] = p
	return p, nil
}

// Process looks up a live process by PID.
func (k *Kernel) Process(pid PID) (*Process, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok || p.exited {
		return nil, false
	}
	return p, true
}

// Exit terminates a process and runs its registered cleanups (LIFO).
func (k *Kernel) Exit(pid PID) error {
	k.mu.Lock()
	p, ok := k.procs[pid]
	if !ok || p.exited {
		k.mu.Unlock()
		return fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	p.exited = true
	delete(k.procs, pid)
	k.mu.Unlock()

	p.mu.Lock()
	cleanups := p.cleanup
	p.cleanup = nil
	p.mu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	return nil
}

// OnExit registers a cleanup to run when the process exits.
func (p *Process) OnExit(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cleanup = append(p.cleanup, fn)
}

// SetUID changes the process's inside-namespace UID. Inside a non-host user
// namespace this always succeeds — that freedom is precisely the
// vulnerability of UID-based CXI service membership that the paper's netns
// member type closes.
func (p *Process) SetUID(uid UID) error {
	k := p.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	u := k.userns[p.UserNS]
	if u.host && p.UID != 0 {
		return fmt.Errorf("%w: setuid in host userns requires root", ErrPermission)
	}
	p.UID = uid
	return nil
}

// SetGID changes the process's inside-namespace GID under the same rules as
// SetUID.
func (p *Process) SetGID(gid GID) error {
	k := p.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	u := k.userns[p.UserNS]
	if u.host && p.UID != 0 {
		return fmt.Errorf("%w: setgid in host userns requires root", ErrPermission)
	}
	p.GID = gid
	return nil
}

// Setns moves the process into another network namespace. Only host-root may
// do this, matching CAP_SYS_ADMIN semantics; containerized processes cannot
// escape their netns.
func (p *Process) Setns(target Inode) error {
	k := p.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	u := k.userns[p.UserNS]
	if !u.host || p.UID != 0 {
		return fmt.Errorf("%w: setns requires host root", ErrPermission)
	}
	if _, ok := k.netns[target]; !ok {
		return fmt.Errorf("%w: netns %d", ErrNoSuchNamespace, target)
	}
	p.NetNS = target
	return nil
}

// HostCredentials returns the process's credentials translated to host IDs,
// which is what a userns-aware kernel driver sees.
func (k *Kernel) HostCredentials(pid PID) (UID, GID, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok || p.exited {
		return 0, 0, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	u := k.userns[p.UserNS]
	return u.MapUID(p.UID), u.MapGID(p.GID), nil
}
