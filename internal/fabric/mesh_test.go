package fabric

import (
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// newMesh builds one dragonfly group of n fully meshed switches.
func newMesh(t *testing.T, n int) (*sim.Engine, *Topology) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, NewTopology(eng, testConfig(), TopologySpec{Groups: 1, SwitchesPerGroup: n})
}

func TestMeshCrossSwitchDelivery(t *testing.T) {
	eng, m := newMesh(t, 2)
	rx := &sink{}
	a := m.Attach(0, &sink{})
	b := m.Attach(1, rx)
	if err := m.GrantVNI(a, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.GrantVNI(b, 5); err != nil {
		t.Fatal(err)
	}
	link := NewHostLink(eng, m.Switches()[0])
	eng.After(0, func() {
		link.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 1024, Frames: 1, Last: true})
	})
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatalf("cross-switch delivery failed: %d packets", len(rx.pkts))
	}
	st0 := m.Switches()[0].Stats()
	st1 := m.Switches()[1].Stats()
	if st0.TrunkForwarded != 1 {
		t.Errorf("switch0 trunk forwarded = %d", st0.TrunkForwarded)
	}
	if st1.Forwarded != 1 {
		t.Errorf("switch1 forwarded = %d", st1.Forwarded)
	}
}

func TestMeshLocalDeliveryUnchanged(t *testing.T) {
	eng, m := newMesh(t, 2)
	rx := &sink{}
	a := m.Attach(0, &sink{})
	b := m.Attach(0, rx) // same switch
	for _, addr := range []Addr{a, b} {
		if err := m.GrantVNI(addr, 5); err != nil {
			t.Fatal(err)
		}
	}
	link := NewHostLink(eng, m.Switches()[0])
	eng.After(0, func() {
		link.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 64, Frames: 1})
	})
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatal("intra-switch delivery broken in mesh")
	}
	if m.Switches()[0].Stats().TrunkForwarded != 0 {
		t.Error("local packet took the trunk")
	}
}

func TestMeshIngressACLAtSourceEdge(t *testing.T) {
	eng, m := newMesh(t, 2)
	rx := &sink{}
	a := m.Attach(0, &sink{})
	b := m.Attach(1, rx)
	// Only the destination has the VNI.
	if err := m.GrantVNI(b, 5); err != nil {
		t.Fatal(err)
	}
	link := NewHostLink(eng, m.Switches()[0])
	eng.After(0, func() {
		link.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 64, Frames: 1})
	})
	eng.Run()
	if len(rx.pkts) != 0 {
		t.Fatal("packet crossed mesh without source-edge grant")
	}
	if m.Switches()[0].Stats().Drops[DropVNIIngress] != 1 {
		t.Error("ingress drop not counted at source edge")
	}
}

func TestMeshEgressACLAtDestinationEdge(t *testing.T) {
	eng, m := newMesh(t, 2)
	rx := &sink{}
	a := m.Attach(0, &sink{})
	b := m.Attach(1, rx)
	// Only the source has the VNI: the packet crosses the trunk and is
	// dropped at the destination edge.
	if err := m.GrantVNI(a, 5); err != nil {
		t.Fatal(err)
	}
	link := NewHostLink(eng, m.Switches()[0])
	eng.After(0, func() {
		link.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 64, Frames: 1})
	})
	eng.Run()
	if len(rx.pkts) != 0 {
		t.Fatal("packet delivered without destination-edge grant")
	}
	if m.Switches()[1].Stats().Drops[DropVNIEgress] != 1 {
		t.Errorf("egress drop not counted at destination edge: %v", m.Switches()[1].Stats().Drops)
	}
}

func TestMeshUnknownDestination(t *testing.T) {
	eng, m := newMesh(t, 2)
	a := m.Attach(0, &sink{})
	if err := m.GrantVNI(a, 5); err != nil {
		t.Fatal(err)
	}
	link := NewHostLink(eng, m.Switches()[0])
	eng.After(0, func() {
		link.Send(&Packet{Src: a, Dst: Addr(9999), VNI: 5, TC: TCDedicated, PayloadBytes: 64, Frames: 1})
	})
	eng.Run()
	if m.Switches()[0].Stats().Drops[DropNoRoute] != 1 {
		t.Error("unroutable mesh destination not dropped")
	}
}

func TestMeshAddressesGloballyUnique(t *testing.T) {
	_, m := newMesh(t, 3)
	seen := map[Addr]bool{}
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			addr := m.Attach(i, &sink{})
			if seen[addr] {
				t.Fatalf("duplicate address %d across switches", addr)
			}
			seen[addr] = true
		}
	}
}

func TestMeshExtraHopLatency(t *testing.T) {
	// Cross-switch delivery must cost exactly one extra trunk hop
	// (serialization + propagation) versus local delivery.
	timeFor := func(cross bool) sim.Time {
		eng := sim.NewEngine(1)
		m := NewTopology(eng, testConfig(), TopologySpec{Groups: 1, SwitchesPerGroup: 2})
		rx := &sink{}
		a := m.Attach(0, &sink{})
		var b Addr
		if cross {
			b = m.Attach(1, rx)
		} else {
			b = m.Attach(0, rx)
		}
		_ = m.GrantVNI(a, 5)
		_ = m.GrantVNI(b, 5)
		link := NewHostLink(eng, m.Switches()[0])
		eng.After(0, func() {
			link.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 64, Frames: 1, Last: true})
		})
		eng.Run()
		return eng.Now()
	}
	local := timeFor(false)
	cross := timeFor(true)
	cfg := testConfig()
	sw := NewSwitch("ref", sim.NewEngine(1), cfg)
	hop := sw.wireTime(64+cfg.FrameHeaderBytes) + cfg.PropagationDelay
	got := time.Duration(cross - local)
	if got != hop {
		t.Errorf("extra hop = %v, want %v", got, hop)
	}
}

func TestMeshSwitchFor(t *testing.T) {
	_, m := newMesh(t, 2)
	a := m.Attach(1, &sink{})
	sw, ok := m.SwitchFor(a)
	if !ok || sw != m.Switches()[1] {
		t.Error("SwitchFor wrong")
	}
	if _, ok := m.SwitchFor(Addr(555)); ok {
		t.Error("SwitchFor(bogus) succeeded")
	}
	if err := m.GrantVNI(Addr(555), 1); err == nil {
		t.Error("GrantVNI(bogus) succeeded")
	}
}
