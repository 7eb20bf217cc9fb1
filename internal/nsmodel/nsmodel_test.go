package nsmodel

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHostNamespacesExist(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NetNS(k.HostNetNS()); !ok {
		t.Fatal("host netns missing")
	}
	u, ok := k.UserNS(k.HostUserNS())
	if !ok {
		t.Fatal("host userns missing")
	}
	if !u.IsHost() {
		t.Error("host userns not marked host")
	}
}

func TestNetNSInodesUnique(t *testing.T) {
	k := NewKernel()
	seen := map[Inode]bool{k.HostNetNS(): true}
	for i := 0; i < 1000; i++ {
		ns := k.NewNetNS("c")
		if ns.Inode == InvalidInode {
			t.Fatal("assigned invalid inode")
		}
		if seen[ns.Inode] {
			t.Fatalf("duplicate inode %d", ns.Inode)
		}
		seen[ns.Inode] = true
	}
}

func TestSpawnDefaultsToHostNamespaces(t *testing.T) {
	k := NewKernel()
	p, err := k.Spawn("init", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NetNS != k.HostNetNS() || p.UserNS != k.HostUserNS() {
		t.Error("spawn did not default to host namespaces")
	}
}

func TestSpawnRejectsUnknownNamespace(t *testing.T) {
	k := NewKernel()
	if _, err := k.Spawn("x", 0, 0, Inode(999), 0); !errors.Is(err, ErrNoSuchNamespace) {
		t.Errorf("err = %v, want ErrNoSuchNamespace", err)
	}
	if _, err := k.Spawn("x", 0, 0, 0, Inode(999)); !errors.Is(err, ErrNoSuchNamespace) {
		t.Errorf("err = %v, want ErrNoSuchNamespace", err)
	}
}

func TestProcfsNetNSInode(t *testing.T) {
	k := NewKernel()
	ns := k.NewNetNS("pod")
	p, err := k.Spawn("app", 1000, 1000, ns.Inode, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Proc().NetNSInode(p.PID)
	if err != nil {
		t.Fatal(err)
	}
	if got != ns.Inode {
		t.Errorf("procfs netns inode = %d, want %d", got, ns.Inode)
	}
	if _, err := k.Proc().NetNSInode(PID(424242)); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("lookup of bogus pid: %v", err)
	}
}

func TestUserNSUIDMapping(t *testing.T) {
	k := NewKernel()
	u := k.NewUserNS("c1", MapAll(map[UID]UID{0: 100000, 1000: 101000}), MapOne[GID](0, 100000))
	if got := u.MapUID(0); got != 100000 {
		t.Errorf("MapUID(0) = %d, want 100000", got)
	}
	if got := u.MapUID(1000); got != 101000 {
		t.Errorf("MapUID(1000) = %d, want 101000", got)
	}
	if got := u.MapUID(7); got != 65534 {
		t.Errorf("unmapped UID maps to %d, want overflow 65534", got)
	}
	if got := u.MapGID(0); got != 100000 {
		t.Errorf("MapGID(0) = %d, want 100000", got)
	}
	if got := u.MapGID(5); got != 65534 {
		t.Errorf("unmapped GID = %d, want 65534", got)
	}
}

// TestContainerCanForgeUIDButNotNetNS encodes the paper's central security
// argument: inside a user namespace a process may assume any UID (and so
// defeat UID-based CXI service membership) but cannot change its netns.
func TestContainerCanForgeUIDButNotNetNS(t *testing.T) {
	k := NewKernel()
	uns := k.NewUserNS("tenantA", MapOne[UID](0, 100000), IDMap[GID]{})
	nns := k.NewNetNS("tenantA")
	p, err := k.Spawn("evil", 0, 0, nns.Inode, uns.Inode)
	if err != nil {
		t.Fatal(err)
	}
	// Forge UID to the victim's: allowed inside userns.
	if err := p.SetUID(1001); err != nil {
		t.Fatalf("SetUID inside userns should succeed: %v", err)
	}
	huid, _, err := k.HostCredentials(p.PID)
	if err != nil {
		t.Fatal(err)
	}
	if huid != 65534 {
		t.Errorf("forged UID mapped to host %d, want overflow", huid)
	}
	// Escaping the netns must fail.
	if err := p.Setns(k.HostNetNS()); !errors.Is(err, ErrPermission) {
		t.Errorf("containerized setns: err = %v, want ErrPermission", err)
	}
	ino, _ := k.Proc().NetNSInode(p.PID)
	if ino != nns.Inode {
		t.Error("netns changed despite denial")
	}
}

func TestHostRootCanSetns(t *testing.T) {
	k := NewKernel()
	ns := k.NewNetNS("target")
	p, _ := k.Spawn("cni", 0, 0, 0, 0)
	if err := p.Setns(ns.Inode); err != nil {
		t.Fatalf("host root setns failed: %v", err)
	}
	if err := p.Setns(Inode(999999)); !errors.Is(err, ErrNoSuchNamespace) {
		t.Errorf("setns to bogus ns: %v", err)
	}
}

func TestHostNonRootCannotSetUIDOrSetns(t *testing.T) {
	k := NewKernel()
	p, _ := k.Spawn("user", 1000, 1000, 0, 0)
	if err := p.SetUID(0); !errors.Is(err, ErrPermission) {
		t.Errorf("SetUID: %v, want ErrPermission", err)
	}
	if err := p.SetGID(0); !errors.Is(err, ErrPermission) {
		t.Errorf("SetGID: %v, want ErrPermission", err)
	}
	ns := k.NewNetNS("x")
	if err := p.Setns(ns.Inode); !errors.Is(err, ErrPermission) {
		t.Errorf("Setns: %v, want ErrPermission", err)
	}
}

func TestDeleteNetNSRefusedWhileBusy(t *testing.T) {
	k := NewKernel()
	ns := k.NewNetNS("pod")
	p, _ := k.Spawn("app", 0, 0, ns.Inode, 0)
	if err := k.DeleteNetNS(ns.Inode); !errors.Is(err, ErrNamespaceBusy) {
		t.Errorf("delete busy netns: %v, want ErrNamespaceBusy", err)
	}
	if err := k.Exit(p.PID); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteNetNS(ns.Inode); err != nil {
		t.Errorf("delete after exit: %v", err)
	}
	if err := k.DeleteNetNS(ns.Inode); !errors.Is(err, ErrNoSuchNamespace) {
		t.Errorf("double delete: %v", err)
	}
}

func TestDeleteHostNetNSForbidden(t *testing.T) {
	k := NewKernel()
	if err := k.DeleteNetNS(k.HostNetNS()); !errors.Is(err, ErrPermission) {
		t.Errorf("deleting host netns: %v, want ErrPermission", err)
	}
}

func TestExitRunsCleanupsLIFO(t *testing.T) {
	k := NewKernel()
	p, _ := k.Spawn("app", 0, 0, 0, 0)
	var order []int
	p.OnExit(func() { order = append(order, 1) })
	p.OnExit(func() { order = append(order, 2) })
	if err := k.Exit(p.PID); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("cleanup order = %v, want [2 1]", order)
	}
	if err := k.Exit(p.PID); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("double exit: %v", err)
	}
	if _, ok := k.Process(p.PID); ok {
		t.Error("exited process still visible")
	}
}

func TestReadStatus(t *testing.T) {
	k := NewKernel()
	uns := k.NewUserNS("c", MapOne[UID](0, 100000), MapOne[GID](0, 100500))
	nns := k.NewNetNS("c")
	p, _ := k.Spawn("app", 0, 0, nns.Inode, uns.Inode)
	st, err := k.Proc().ReadStatus(p.PID)
	if err != nil {
		t.Fatal(err)
	}
	if st.HostUID != 100000 || st.HostGID != 100500 {
		t.Errorf("host creds = %d/%d, want 100000/100500", st.HostUID, st.HostGID)
	}
	if st.HostUser {
		t.Error("container process marked as host userns")
	}
	if st.NetNS != nns.Inode {
		t.Error("status netns mismatch")
	}
	if _, err := k.Proc().ReadStatus(PID(-5)); err == nil {
		t.Error("ReadStatus of bogus pid succeeded")
	}
}

func TestHostCredentialsIdentityInHostUserns(t *testing.T) {
	k := NewKernel()
	p, _ := k.Spawn("app", 1234, 5678, 0, 0)
	uid, gid, err := k.HostCredentials(p.PID)
	if err != nil {
		t.Fatal(err)
	}
	if uid != 1234 || gid != 5678 {
		t.Errorf("host creds = %d/%d, want identity 1234/5678", uid, gid)
	}
}

// Property: inode allocation is globally unique across namespace kinds.
func TestQuickInodeUniqueness(t *testing.T) {
	f := func(nNet, nUser uint8) bool {
		k := NewKernel()
		seen := map[Inode]bool{k.HostNetNS(): true, k.HostUserNS(): true}
		for i := 0; i < int(nNet); i++ {
			ns := k.NewNetNS("n")
			if seen[ns.Inode] {
				return false
			}
			seen[ns.Inode] = true
		}
		for i := 0; i < int(nUser); i++ {
			us := k.NewUserNS("u", IDMap[UID]{}, IDMap[GID]{})
			if seen[us.Inode] {
				return false
			}
			seen[us.Inode] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: userns mapping is stable — repeated translation of the same
// inside-ID yields the same host ID, and distinct mapped IDs never collide
// unless the mapping itself collides.
func TestQuickUIDMappingStable(t *testing.T) {
	f := func(ids []uint16) bool {
		m := make(map[UID]UID)
		for i, id := range ids {
			m[UID(id)] = UID(100000 + i)
		}
		k := NewKernel()
		u := k.NewUserNS("c", MapAll(m), IDMap[GID]{})
		for in, want := range m {
			if u.MapUID(in) != want || u.MapUID(in) != u.MapUID(in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestPIDsMonotonic(t *testing.T) {
	k := NewKernel()
	var last PID
	for i := 0; i < 100; i++ {
		p, err := k.Spawn("p", 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.PID <= last {
			t.Fatalf("PID %d not greater than previous %d", p.PID, last)
		}
		last = p.PID
	}
}
