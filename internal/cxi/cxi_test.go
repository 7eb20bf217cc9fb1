package cxi

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	kern *nsmodel.Kernel
	sw   *fabric.Switch
	devA *Device
	devB *Device
	root *nsmodel.Process // host root, used for privileged svc ops
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	kern := nsmodel.NewKernel()
	cfg := fabric.DefaultConfig()
	cfg.JitterFrac = 0
	sw := fabric.NewSwitch("s", eng, cfg)
	dcfg := DefaultDeviceConfig()
	devA := NewDevice("cxi0", eng, kern, sw, dcfg)
	devB := NewDevice("cxi1", eng, kern, sw, dcfg)
	root, err := kern.Spawn("root", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, kern: kern, sw: sw, devA: devA, devB: devB, root: root}
}

func (r *rig) svc(t *testing.T, d *Device, desc SvcDesc) SvcID {
	t.Helper()
	id, err := d.SvcAlloc(r.root.PID, desc)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDefaultServiceExists(t *testing.T) {
	r := newRig(t)
	svc, ok := r.devA.SvcGet(DefaultSvcID)
	if !ok {
		t.Fatal("default service missing")
	}
	if svc.Desc.Restricted {
		t.Error("default service should be unrestricted")
	}
	if !r.sw.HasVNI(r.devA.Addr(), 1) {
		t.Error("default VNI 1 not granted on switch")
	}
}

func TestSvcAllocRequiresHostRoot(t *testing.T) {
	r := newRig(t)
	user, _ := r.kern.Spawn("user", 1000, 1000, 0, 0)
	if _, err := r.devA.SvcAlloc(user.PID, SvcDesc{Name: "x"}); !errors.Is(err, ErrPrivilege) {
		t.Errorf("non-root SvcAlloc: %v, want ErrPrivilege", err)
	}
	// Container root (uid 0 in a userns) must also be rejected.
	uns := r.kern.NewUserNS("c", map[nsmodel.UID]nsmodel.UID{0: 100000}, nil)
	nns := r.kern.NewNetNS("c")
	croot, _ := r.kern.Spawn("croot", 0, 0, nns.Inode, uns.Inode)
	if _, err := r.devA.SvcAlloc(croot.PID, SvcDesc{Name: "y"}); !errors.Is(err, ErrPrivilege) {
		t.Errorf("container-root SvcAlloc: %v, want ErrPrivilege", err)
	}
}

func TestSvcAllocGrantsVNIsOnSwitch(t *testing.T) {
	r := newRig(t)
	id := r.svc(t, r.devA, SvcDesc{Name: "tenant", Restricted: true, VNIs: []fabric.VNI{42, 43}})
	for _, v := range []fabric.VNI{42, 43} {
		if !r.sw.HasVNI(r.devA.Addr(), v) {
			t.Errorf("vni %d not granted on switch", v)
		}
	}
	if err := r.devA.SvcDestroy(r.root.PID, id); err != nil {
		t.Fatal(err)
	}
	for _, v := range []fabric.VNI{42, 43} {
		if r.sw.HasVNI(r.devA.Addr(), v) {
			t.Errorf("vni %d still granted after destroy", v)
		}
	}
}

func TestVNIRefCountingAcrossServices(t *testing.T) {
	r := newRig(t)
	id1 := r.svc(t, r.devA, SvcDesc{Name: "a", VNIs: []fabric.VNI{7}})
	id2 := r.svc(t, r.devA, SvcDesc{Name: "b", VNIs: []fabric.VNI{7}})
	if err := r.devA.SvcDestroy(r.root.PID, id1); err != nil {
		t.Fatal(err)
	}
	if !r.sw.HasVNI(r.devA.Addr(), 7) {
		t.Error("vni revoked while another service still references it")
	}
	if err := r.devA.SvcDestroy(r.root.PID, id2); err != nil {
		t.Fatal(err)
	}
	if r.sw.HasVNI(r.devA.Addr(), 7) {
		t.Error("vni not revoked after last reference")
	}
}

// TestDuplicateSvcNameRejected pins the name index behind SvcAlloc's
// duplicate check: a live name (the built-in default service's included)
// is taken, a destroyed service's name is free again, unnamed services
// never collide, and names are per device.
func TestDuplicateSvcNameRejected(t *testing.T) {
	r := newRig(t)
	id := r.svc(t, r.devA, SvcDesc{Name: "dup"})
	for _, name := range []string{"dup", "default"} {
		if _, err := r.devA.SvcAlloc(r.root.PID, SvcDesc{Name: name}); !errors.Is(err, ErrDuplicateSvc) {
			t.Errorf("duplicate name %q: %v, want ErrDuplicateSvc", name, err)
		}
	}
	r.svc(t, r.devB, SvcDesc{Name: "dup"}) // another device, another namespace
	r.svc(t, r.devA, SvcDesc{})
	unnamed := r.svc(t, r.devA, SvcDesc{})

	if err := r.devA.SvcDestroy(r.root.PID, unnamed); err != nil {
		t.Fatal(err)
	}
	if err := r.devA.SvcDestroy(r.root.PID, id); err != nil {
		t.Fatal(err)
	}
	reused := r.svc(t, r.devA, SvcDesc{Name: "dup"})
	if reused == id {
		t.Errorf("service ID %d reused along with the name", id)
	}
	if _, err := r.devA.SvcAlloc(r.root.PID, SvcDesc{Name: "dup"}); !errors.Is(err, ErrDuplicateSvc) {
		t.Errorf("name taken again after reuse: %v, want ErrDuplicateSvc", err)
	}
}

func TestNetNSMemberAuthentication(t *testing.T) {
	r := newRig(t)
	nns := r.kern.NewNetNS("pod")
	other := r.kern.NewNetNS("otherpod")
	id := r.svc(t, r.devA, SvcDesc{
		Name: "pod-svc", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode)},
		VNIs:    []fabric.VNI{100},
	})
	inPod, _ := r.kern.Spawn("app", 0, 0, nns.Inode, 0)
	outPod, _ := r.kern.Spawn("app2", 0, 0, other.Inode, 0)

	ep, err := r.devA.EPAlloc(inPod.PID, id, 100, fabric.TCDedicated)
	if err != nil {
		t.Fatalf("member netns EPAlloc failed: %v", err)
	}
	ep.Close()
	if _, err := r.devA.EPAlloc(outPod.PID, id, 100, fabric.TCDedicated); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("non-member netns EPAlloc: %v, want ErrNotAuthorized", err)
	}
}

// TestUIDForgeryDefeatsUIDMemberButNotNetNS reproduces the paper's attack:
// in a user namespace a process can assume any UID and so authenticate
// against UID-member services via the forged identity — when the driver is
// not userns-aware. The netns member type is immune because the process
// cannot change its netns.
func TestUIDForgeryDefeatsUIDMemberButNotNetNS(t *testing.T) {
	eng := sim.NewEngine(1)
	kern := nsmodel.NewKernel()
	fcfg := fabric.DefaultConfig()
	fcfg.JitterFrac = 0
	sw := fabric.NewSwitch("s", eng, fcfg)
	dcfg := DefaultDeviceConfig()
	dcfg.UsernsAware = false // unpatched driver
	dev := NewDevice("cxi0", eng, kern, sw, dcfg)
	root, _ := kern.Spawn("root", 0, 0, 0, 0)

	victimUID := nsmodel.UID(1001)
	uidSvc, err := dev.SvcAlloc(root.PID, SvcDesc{
		Name: "victim", Restricted: true,
		Members: []Member{UIDMember(victimUID)},
		VNIs:    []fabric.VNI{50},
	})
	if err != nil {
		t.Fatal(err)
	}
	podNS := kern.NewNetNS("victim-pod")
	nsSvc, err := dev.SvcAlloc(root.PID, SvcDesc{
		Name: "victim-ns", Restricted: true,
		Members: []Member{NetNSMember(podNS.Inode)},
		VNIs:    []fabric.VNI{51},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Attacker: container root in its own userns + netns, forges UID.
	uns := kern.NewUserNS("attacker", map[nsmodel.UID]nsmodel.UID{0: 200000}, nil)
	nns := kern.NewNetNS("attacker")
	evil, _ := kern.Spawn("evil", 0, 0, nns.Inode, uns.Inode)
	if err := evil.SetUID(victimUID); err != nil {
		t.Fatal(err)
	}

	// Against the unpatched (non-userns-aware) driver, UID forgery works:
	ep, err := dev.EPAlloc(evil.PID, uidSvc, 50, fabric.TCDedicated)
	if err != nil {
		t.Fatalf("expected forged-UID auth to succeed on unpatched driver, got %v", err)
	}
	ep.Close()

	// The netns member cannot be forged regardless of driver mode:
	if _, err := dev.EPAlloc(evil.PID, nsSvc, 51, fabric.TCDedicated); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("netns member forged?! err = %v", err)
	}
}

func TestUsernsAwareDriverBlocksUIDForgery(t *testing.T) {
	r := newRig(t) // UsernsAware: true
	victimUID := nsmodel.UID(1001)
	id := r.svc(t, r.devA, SvcDesc{
		Name: "victim", Restricted: true,
		Members: []Member{UIDMember(victimUID)},
		VNIs:    []fabric.VNI{50},
	})
	uns := r.kern.NewUserNS("attacker", map[nsmodel.UID]nsmodel.UID{0: 200000}, nil)
	nns := r.kern.NewNetNS("attacker")
	evil, _ := r.kern.Spawn("evil", 0, 0, nns.Inode, uns.Inode)
	if err := evil.SetUID(victimUID); err != nil {
		t.Fatal(err)
	}
	// The userns-aware driver maps the forged UID 1001 -> overflow (not
	// mapped), so membership fails.
	if _, err := r.devA.EPAlloc(evil.PID, id, 50, fabric.TCDedicated); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("userns-aware driver admitted forged UID: %v", err)
	}
	// The genuine victim on the host authenticates fine.
	victim, _ := r.kern.Spawn("victim", victimUID, 1001, 0, 0)
	ep, err := r.devA.EPAlloc(victim.PID, id, 50, fabric.TCDedicated)
	if err != nil {
		t.Fatalf("legitimate victim rejected: %v", err)
	}
	ep.Close()
}

func TestGIDMemberAuthentication(t *testing.T) {
	r := newRig(t)
	id := r.svc(t, r.devA, SvcDesc{
		Name: "grp", Restricted: true,
		Members: []Member{GIDMember(2000)},
		VNIs:    []fabric.VNI{60},
	})
	inGrp, _ := r.kern.Spawn("a", 1000, 2000, 0, 0)
	outGrp, _ := r.kern.Spawn("b", 1000, 3000, 0, 0)
	if _, err := r.devA.EPAlloc(inGrp.PID, id, 60, fabric.TCDedicated); err != nil {
		t.Errorf("group member rejected: %v", err)
	}
	if _, err := r.devA.EPAlloc(outGrp.PID, id, 60, fabric.TCDedicated); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("non-member admitted: %v", err)
	}
}

func TestEPAllocValidatesVNIAndTC(t *testing.T) {
	r := newRig(t)
	nns := r.kern.NewNetNS("pod")
	id := r.svc(t, r.devA, SvcDesc{
		Name: "svc", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode)},
		VNIs:    []fabric.VNI{100},
		TCs:     []fabric.TrafficClass{fabric.TCDedicated},
	})
	p, _ := r.kern.Spawn("app", 0, 0, nns.Inode, 0)
	if _, err := r.devA.EPAlloc(p.PID, id, 999, fabric.TCDedicated); !errors.Is(err, ErrVNINotInService) {
		t.Errorf("bad vni: %v", err)
	}
	if _, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCLowLatency); !errors.Is(err, ErrTCNotInService) {
		t.Errorf("bad tc: %v", err)
	}
	if _, err := r.devA.EPAlloc(p.PID, SvcID(999), 100, fabric.TCDedicated); !errors.Is(err, ErrNoSuchService) {
		t.Errorf("bad svc: %v", err)
	}
}

func TestResourceLimits(t *testing.T) {
	r := newRig(t)
	nns := r.kern.NewNetNS("pod")
	id := r.svc(t, r.devA, SvcDesc{
		Name: "small", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode)},
		VNIs:    []fabric.VNI{100},
		Limits:  ResourceLimits{MaxTXQs: 2, MaxEQs: 2, MaxCTs: 2},
	})
	p, _ := r.kern.Spawn("app", 0, 0, nns.Inode, 0)
	ep1, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated); !errors.Is(err, ErrResourceLimit) {
		t.Errorf("over-limit alloc: %v, want ErrResourceLimit", err)
	}
	ep1.Close()
	ep3, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated)
	if err != nil {
		t.Errorf("alloc after close failed: %v", err)
	}
	ep2.Close()
	ep3.Close()
	st := r.devA.Stats()
	if st.AuthFailures[AuthLimits] != 1 {
		t.Errorf("limit failures = %d, want 1", st.AuthFailures[AuthLimits])
	}
}

func TestSvcDestroyRefusedWhileEndpointsLive(t *testing.T) {
	r := newRig(t)
	nns := r.kern.NewNetNS("pod")
	id := r.svc(t, r.devA, SvcDesc{
		Name: "busy", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode)}, VNIs: []fabric.VNI{100},
	})
	p, _ := r.kern.Spawn("app", 0, 0, nns.Inode, 0)
	ep, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.devA.SvcDestroy(r.root.PID, id); !errors.Is(err, ErrServiceBusy) {
		t.Errorf("destroy busy svc: %v, want ErrServiceBusy", err)
	}
	ep.Close()
	if err := r.devA.SvcDestroy(r.root.PID, id); err != nil {
		t.Errorf("destroy after close: %v", err)
	}
}

func TestDisabledService(t *testing.T) {
	r := newRig(t)
	nns := r.kern.NewNetNS("pod")
	id := r.svc(t, r.devA, SvcDesc{
		Name: "d", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode)}, VNIs: []fabric.VNI{100},
	})
	if err := r.devA.SvcSetEnabled(r.root.PID, id, false); err != nil {
		t.Fatal(err)
	}
	p, _ := r.kern.Spawn("app", 0, 0, nns.Inode, 0)
	if _, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated); !errors.Is(err, ErrServiceDisabled) {
		t.Errorf("disabled svc alloc: %v", err)
	}
	if err := r.devA.SvcSetEnabled(r.root.PID, id, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.devA.EPAlloc(p.PID, id, 100, fabric.TCDedicated); err != nil {
		t.Errorf("re-enabled svc alloc: %v", err)
	}
}

func TestSvcFindByMember(t *testing.T) {
	r := newRig(t)
	nns := r.kern.NewNetNS("pod")
	id1 := r.svc(t, r.devA, SvcDesc{Name: "s1", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode)}, VNIs: []fabric.VNI{100}})
	id2 := r.svc(t, r.devA, SvcDesc{Name: "s2", Restricted: true,
		Members: []Member{NetNSMember(nns.Inode), UIDMember(5)}, VNIs: []fabric.VNI{101}})
	r.svc(t, r.devA, SvcDesc{Name: "s3", Restricted: true,
		Members: []Member{UIDMember(5)}, VNIs: []fabric.VNI{102}})
	got := r.devA.SvcFindByMember(NetNSMember(nns.Inode))
	if len(got) != 2 || got[0] != id1 || got[1] != id2 {
		t.Errorf("SvcFindByMember = %v, want [%d %d]", got, id1, id2)
	}
}

func TestEndToEndMessage(t *testing.T) {
	r := newRig(t)
	nnsA := r.kern.NewNetNS("podA")
	nnsB := r.kern.NewNetNS("podB")
	vni := fabric.VNI(77)
	idA := r.svc(t, r.devA, SvcDesc{Name: "a", Restricted: true,
		Members: []Member{NetNSMember(nnsA.Inode)}, VNIs: []fabric.VNI{vni}})
	idB := r.svc(t, r.devB, SvcDesc{Name: "b", Restricted: true,
		Members: []Member{NetNSMember(nnsB.Inode)}, VNIs: []fabric.VNI{vni}})
	pa, _ := r.kern.Spawn("a", 0, 0, nnsA.Inode, 0)
	pb, _ := r.kern.Spawn("b", 0, 0, nnsB.Inode, 0)
	epA, err := r.devA.EPAlloc(pa.PID, idA, vni, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := r.devB.EPAlloc(pb.PID, idB, vni, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	var got []Message
	epB.OnMessage(func(m Message) { got = append(got, m) })
	completed := false
	r.eng.After(0, func() {
		if err := epA.Send(r.devB.Addr(), epB.Idx(), 1<<20, func() { completed = true }); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.eng.Run()
	if !completed {
		t.Error("send completion never fired")
	}
	if len(got) != 1 {
		t.Fatalf("received %d messages, want 1", len(got))
	}
	if got[0].Size != 1<<20 || got[0].VNI != vni || got[0].Src != r.devA.Addr() {
		t.Errorf("message = %+v", got[0])
	}
	stA, stB := r.devA.Stats(), r.devB.Stats()
	if stA.MsgsSent != 1 || stA.BytesSent != 1<<20 {
		t.Errorf("devA stats %+v", stA)
	}
	if stB.MsgsRecv != 1 || stB.BytesRecv != 1<<20 {
		t.Errorf("devB stats %+v", stB)
	}
}

func TestCrossVNITrafficDropped(t *testing.T) {
	// Endpoint on VNI 10 cannot reach an endpoint bound to VNI 20 even on
	// the same NIC pair: the packet is dropped at the switch (ingress NIC
	// has 10, not 20... actually sender tags its own VNI 10; receiver EP is
	// on 20 so the device demux also refuses). We verify no delivery.
	r := newRig(t)
	nnsA := r.kern.NewNetNS("a")
	nnsB := r.kern.NewNetNS("b")
	idA := r.svc(t, r.devA, SvcDesc{Name: "a", Restricted: true,
		Members: []Member{NetNSMember(nnsA.Inode)}, VNIs: []fabric.VNI{10}})
	idB := r.svc(t, r.devB, SvcDesc{Name: "b", Restricted: true,
		Members: []Member{NetNSMember(nnsB.Inode)}, VNIs: []fabric.VNI{20}})
	pa, _ := r.kern.Spawn("a", 0, 0, nnsA.Inode, 0)
	pb, _ := r.kern.Spawn("b", 0, 0, nnsB.Inode, 0)
	epA, _ := r.devA.EPAlloc(pa.PID, idA, 10, fabric.TCDedicated)
	epB, _ := r.devB.EPAlloc(pb.PID, idB, 20, fabric.TCDedicated)
	delivered := 0
	epB.OnMessage(func(Message) { delivered++ })
	r.eng.After(0, func() {
		if err := epA.Send(r.devB.Addr(), epB.Idx(), 64, nil); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.eng.Run()
	if delivered != 0 {
		t.Fatal("cross-VNI message delivered")
	}
	if r.sw.Stats().Drops[fabric.DropVNIEgress] != 1 {
		t.Errorf("switch drops = %v, want one egress drop", r.sw.Stats().Drops)
	}
}

func TestSendOnClosedEndpoint(t *testing.T) {
	r := newRig(t)
	p, _ := r.kern.Spawn("app", 0, 0, 0, 0)
	ep, err := r.devA.EPAlloc(p.PID, DefaultSvcID, 1, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if err := ep.Send(r.devB.Addr(), 1, 64, nil); !errors.Is(err, ErrEndpointClosed) {
		t.Errorf("send on closed ep: %v", err)
	}
	ep.Close() // double close is a no-op
}

func TestMessageToUnknownEndpointCounted(t *testing.T) {
	r := newRig(t)
	p, _ := r.kern.Spawn("app", 0, 0, 0, 0)
	epA, err := r.devA.EPAlloc(p.PID, DefaultSvcID, 1, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.After(0, func() {
		if err := epA.Send(r.devB.Addr(), 12345, 64, nil); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.eng.Run()
	if r.devB.Stats().UnroutedPkts != 1 {
		t.Errorf("unrouted = %d, want 1", r.devB.Stats().UnroutedPkts)
	}
}

func TestZeroByteMessage(t *testing.T) {
	r := newRig(t)
	pa, _ := r.kern.Spawn("a", 0, 0, 0, 0)
	pb, _ := r.kern.Spawn("b", 0, 0, 0, 0)
	epA, _ := r.devA.EPAlloc(pa.PID, DefaultSvcID, 1, fabric.TCDedicated)
	epB, _ := r.devB.EPAlloc(pb.PID, DefaultSvcID, 1, fabric.TCDedicated)
	var got *Message
	epB.OnMessage(func(m Message) { got = &m })
	r.eng.After(0, func() {
		if err := epA.Send(r.devB.Addr(), epB.Idx(), 0, nil); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("zero-byte message not delivered")
	}
	if got.Size != 0 {
		t.Errorf("size = %d, want 0", got.Size)
	}
}

func TestFrameGranularMatchesCoalesced(t *testing.T) {
	run := func(coalesce bool) sim.Time {
		eng := sim.NewEngine(9)
		kern := nsmodel.NewKernel()
		fcfg := fabric.DefaultConfig()
		fcfg.JitterFrac = 0
		sw := fabric.NewSwitch("s", eng, fcfg)
		dcfg := DefaultDeviceConfig()
		dcfg.CoalesceFrames = coalesce
		devA := NewDevice("a", eng, kern, sw, dcfg)
		devB := NewDevice("b", eng, kern, sw, dcfg)
		pa, _ := kern.Spawn("a", 0, 0, 0, 0)
		pb, _ := kern.Spawn("b", 0, 0, 0, 0)
		epA, _ := devA.EPAlloc(pa.PID, DefaultSvcID, 1, fabric.TCDedicated)
		epB, _ := devB.EPAlloc(pb.PID, DefaultSvcID, 1, fabric.TCDedicated)
		var arrived sim.Time
		epB.OnMessage(func(Message) { arrived = eng.Now() })
		eng.After(0, func() {
			if err := epA.Send(devB.Addr(), epB.Idx(), 256*1024, nil); err != nil {
				panic(err)
			}
		})
		eng.Run()
		return arrived
	}
	tc := run(true)
	tf := run(false)
	// Coalescing pays switch latency once; allow that much divergence.
	diff := tc.Sub(tf)
	if diff < 0 {
		diff = -diff
	}
	frames := 256 * 1024 / 2048
	if diff > fabric.DefaultConfig().SwitchLatency*sim.Duration(frames) {
		t.Errorf("coalesced %v vs frame-granular %v diverge too much", tc, tf)
	}
}

// TestReassemblyCursorMatchesMap interleaves the frames of messages from
// several sources at one NIC in a random order, so the reassembly cursor
// (curKey/curPM) keeps pointing at some other message's record: hits,
// misses that fall back to the map, completions of the record under the
// cursor and of records elsewhere. Every message must be delivered once,
// with its own byte count, and no record may be left behind.
func TestReassemblyCursorMatchesMap(t *testing.T) {
	r := newRig(t)
	ep, err := r.devB.EPAlloc(r.root.PID, DefaultSvcID, 1, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	got := map[fabric.Addr][]int{}
	ep.OnMessage(func(m Message) { got[m.Src] = append(got[m.Src], m.Size) })

	rng := rand.New(rand.NewSource(7))
	type stream struct {
		src    fabric.Addr
		msgID  uint64
		frames int // left in the current message
		left   int // messages still to start
	}
	streams := make([]*stream, 4)
	want := map[fabric.Addr][]int{}
	for i := range streams {
		streams[i] = &stream{src: fabric.Addr(100 + i), left: 20}
	}
	for live := len(streams); live > 0; {
		s := streams[rng.Intn(len(streams))]
		if s.frames == 0 {
			if s.left == 0 {
				continue
			}
			s.left--
			s.msgID++
			s.frames = 1 + rng.Intn(6) // single-frame messages among them
			want[s.src] = append(want[s.src], 100*s.frames)
		}
		// A run of this stream's frames, the way a link delivers them.
		for n := 1 + rng.Intn(3); n > 0 && s.frames > 0; n-- {
			s.frames--
			r.devB.ReceivePacket(&fabric.Packet{
				Src: s.src, Dst: r.devB.Addr(), VNI: 1, TC: fabric.TCDedicated,
				PayloadBytes: 100, Frames: 1, DstIdx: ep.Idx(), MsgID: s.msgID, Last: s.frames == 0,
			})
		}
		if s.frames == 0 && s.left == 0 {
			live--
		}
	}
	r.eng.Run()
	for _, s := range streams {
		// Every frame arrived at time zero and the receive overhead is
		// jittered, so deliveries come in any order: compare as multisets.
		sort.Ints(got[s.src])
		sort.Ints(want[s.src])
		if len(got[s.src]) != len(want[s.src]) {
			t.Fatalf("source %d: %d messages delivered, want %d", s.src, len(got[s.src]), len(want[s.src]))
		}
		for i, size := range want[s.src] {
			if got[s.src][i] != size {
				t.Errorf("source %d message %d: %d bytes, want %d", s.src, i, got[s.src][i], size)
			}
		}
	}
	if len(r.devB.partial) != 0 || r.devB.curPM != nil {
		t.Errorf("%d reassembly record(s) left, cursor %v", len(r.devB.partial), r.devB.curPM)
	}
}

// Property: EPAlloc succeeds iff the caller's netns inode is in the member
// list, for arbitrary sets of member inodes.
func TestQuickNetNSMembership(t *testing.T) {
	f := func(memberSel []bool) bool {
		eng := sim.NewEngine(4)
		kern := nsmodel.NewKernel()
		fcfg := fabric.DefaultConfig()
		fcfg.JitterFrac = 0
		sw := fabric.NewSwitch("s", eng, fcfg)
		dev := NewDevice("d", eng, kern, sw, DefaultDeviceConfig())
		root, _ := kern.Spawn("root", 0, 0, 0, 0)

		type entry struct {
			ino    nsmodel.Inode
			member bool
			pid    nsmodel.PID
		}
		var entries []entry
		var members []Member
		for i, isMember := range memberSel {
			ns := kern.NewNetNS("ns")
			p, err := kern.Spawn("p", 0, 0, ns.Inode, 0)
			if err != nil {
				return false
			}
			entries = append(entries, entry{ns.Inode, isMember, p.PID})
			if isMember {
				members = append(members, NetNSMember(ns.Inode))
			}
			_ = i
		}
		id, err := dev.SvcAlloc(root.PID, SvcDesc{
			Name: "q", Restricted: true, Members: members, VNIs: []fabric.VNI{9},
			Limits: ResourceLimits{MaxTXQs: 1 << 20, MaxEQs: 1 << 20, MaxCTs: 1 << 20},
		})
		if err != nil {
			return false
		}
		for _, e := range entries {
			ep, err := dev.EPAlloc(e.pid, id, 9, fabric.TCDedicated)
			if e.member != (err == nil) {
				return false
			}
			if ep != nil {
				ep.Close()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

// Property: resource accounting never goes negative and limits are never
// exceeded under arbitrary alloc/close interleavings.
func TestQuickResourceAccounting(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		lim := int(limit%8) + 1
		eng := sim.NewEngine(5)
		kern := nsmodel.NewKernel()
		fcfg := fabric.DefaultConfig()
		fcfg.JitterFrac = 0
		sw := fabric.NewSwitch("s", eng, fcfg)
		dev := NewDevice("d", eng, kern, sw, DefaultDeviceConfig())
		root, _ := kern.Spawn("root", 0, 0, 0, 0)
		ns := kern.NewNetNS("ns")
		p, _ := kern.Spawn("p", 0, 0, ns.Inode, 0)
		id, err := dev.SvcAlloc(root.PID, SvcDesc{
			Name: "q", Restricted: true, Members: []Member{NetNSMember(ns.Inode)},
			VNIs: []fabric.VNI{9}, Limits: ResourceLimits{MaxTXQs: lim, MaxEQs: lim, MaxCTs: lim},
		})
		if err != nil {
			return false
		}
		var open []*Endpoint
		for _, alloc := range ops {
			if alloc {
				ep, err := dev.EPAlloc(p.PID, id, 9, fabric.TCDedicated)
				if err == nil {
					open = append(open, ep)
				} else if len(open) < lim {
					return false // rejected below limit
				}
				if len(open) > lim {
					return false // exceeded limit
				}
			} else if len(open) > 0 {
				open[len(open)-1].Close()
				open = open[:len(open)-1]
			}
		}
		svc, _ := dev.SvcGet(id)
		return svc.refs == len(open)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}
