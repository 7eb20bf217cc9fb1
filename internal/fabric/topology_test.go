package fabric

import (
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// newTopo builds a topology over the exact-timing test config.
func newTopo(t *testing.T, spec TopologySpec) (*sim.Engine, *Topology) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, NewTopology(eng, testConfig(), spec)
}

// sendOne injects one granted packet from a to b through a's switch.
func sendOne(eng *sim.Engine, topo *Topology, a, b Addr, bytes int) {
	swA, _ := topo.SwitchFor(a)
	link := NewHostLink(eng, swA)
	eng.After(0, func() {
		link.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: bytes, Frames: 1, Last: true})
	})
}

func grantBoth(t *testing.T, topo *Topology, addrs ...Addr) {
	t.Helper()
	for _, a := range addrs {
		if err := topo.GrantVNI(a, 5); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTopologyCrossGroupDelivery(t *testing.T) {
	// 2 groups × 2 switches, endpoints on the non-gateway switches, so the
	// minimal path is intra → global → intra (three trunk hops).
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 2})
	rx := &sink{}
	// Gateways for the (0,1) pair are switch 0 and switch 2; attach to 1 and 3.
	a := topo.Attach(1, &sink{})
	b := topo.Attach(3, rx)
	grantBoth(t, topo, a, b)
	sendOne(eng, topo, a, b, 1024)
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatalf("cross-group delivery failed: %d packets", len(rx.pkts))
	}
	// The three hops must be visible on the per-link counters.
	used := map[string]uint64{}
	for _, l := range topo.Links() {
		if l.Stats.Forwarded > 0 {
			used[l.From+"->"+l.To] = l.Stats.Forwarded
		}
	}
	for _, want := range []string{"rosetta1->rosetta0", "rosetta0->rosetta2", "rosetta2->rosetta3"} {
		if used[want] != 1 {
			t.Errorf("link %s forwarded %d packets, want 1 (used: %v)", want, used[want], used)
		}
	}
	if len(used) != 3 {
		t.Errorf("expected exactly 3 links used, got %v", used)
	}
	if got := topo.GlobalLinkBytes(); got != 1024 {
		t.Errorf("global link bytes = %d, want 1024", got)
	}
}

func TestTopologyPortFailureDuringInFlightDelivery(t *testing.T) {
	// The destination NIC port goes down while the packet is crossing the
	// fabric: the egress check at the destination edge must drop it with
	// link_down, and recovery restores delivery without re-granting.
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 1})
	rx := &sink{}
	a := topo.Attach(0, &sink{})
	b := topo.Attach(1, rx)
	grantBoth(t, topo, a, b)
	sendOne(eng, topo, a, b, 1<<20) // ~42 us on the wire: plenty of in-flight time
	eng.After(time.Microsecond, func() {
		if err := topo.SetPortDown(b, true); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if len(rx.pkts) != 0 {
		t.Fatal("packet delivered to a failed port")
	}
	swB, _ := topo.SwitchFor(b)
	if got := swB.Stats().Drops[DropLinkDown]; got != 1 {
		t.Errorf("destination edge link_down drops = %d, want 1", got)
	}
	// Recovery: the same endpoints work again immediately.
	if err := topo.SetPortDown(b, false); err != nil {
		t.Fatal(err)
	}
	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatal("delivery not restored after port recovery")
	}
}

func TestTopologyPartitionDuringInFlightDelivery(t *testing.T) {
	// A partition lands while a packet is in flight: the in-flight packet
	// already passed ingress and still delivers; the next send dies at the
	// source edge with partitioned.
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 1})
	rx := &sink{}
	a := topo.Attach(0, &sink{})
	b := topo.Attach(1, rx)
	grantBoth(t, topo, a, b)
	sendOne(eng, topo, a, b, 1<<20)
	// The 1 MiB frame clears ingress at ~42 us (host-link serialization);
	// partition at 60 us, while it is crossing the global trunk.
	eng.After(60*time.Microsecond, func() {
		topo.SetPartition(map[Addr]int{a: 1}) // b implicitly group 0
	})
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatalf("in-flight packet lost to a later partition: %d delivered", len(rx.pkts))
	}
	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatal("cross-partition packet delivered")
	}
	if got := topo.Stats().Drops[DropPartitioned]; got != 1 {
		t.Errorf("partitioned drops = %d, want 1", got)
	}
	topo.SetPartition(nil)
	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 2 {
		t.Fatal("delivery not restored after healing the partition")
	}
}

func TestTopologyTrunkFailureMidTransfer(t *testing.T) {
	// The only global link fails mid-transfer: the packet already
	// serialized onto it still arrives (the bits are in flight), packets
	// not yet at the trunk drop with link_down, and the trunk's own drop
	// counter attributes the loss.
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 1})
	rx := &sink{}
	a := topo.Attach(0, &sink{})
	b := topo.Attach(1, rx)
	grantBoth(t, topo, a, b)
	gl := topo.GlobalLinks(0, 1)
	if len(gl) != 1 {
		t.Fatalf("expected 1 global link, got %v", gl)
	}
	// Two packets over one host link: the first clears ingress at ~42 us
	// and takes the trunk; the second reaches the switch at ~84 us.
	swA, _ := topo.SwitchFor(a)
	hl := NewHostLink(eng, swA)
	eng.After(0, func() {
		hl.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 1 << 20, Frames: 1, Last: true})
		hl.Send(&Packet{Src: a, Dst: b, VNI: 5, TC: TCDedicated, PayloadBytes: 1 << 20, Frames: 1, Last: true})
	})
	// Fail the trunk at 60 us: packet 1 is already serialized onto it (in
	// flight), packet 2 has not yet reached the routing decision.
	eng.After(60*time.Microsecond, func() {
		if err := topo.SetTrunkDown(gl[0].From, gl[0].To, true); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1 (in-flight survives, queued drops)", len(rx.pkts))
	}
	if got := topo.TrunkDrops(); got != 1 {
		t.Errorf("trunk drops = %d, want 1", got)
	}
	if got := topo.Stats().Drops[DropLinkDown]; got != 1 {
		t.Errorf("switch link_down drops = %d, want 1", got)
	}
}

func TestTopologyRerouteAndRecovery(t *testing.T) {
	// Two parallel global links: failing the preferred one reroutes
	// traffic onto the alternate (route recomputation), and recovery
	// shifts new traffic back to the preferred link.
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 2, GlobalLinksPerPair: 2})
	rx := &sink{}
	a := topo.Attach(0, &sink{}) // switch 0 is the preferred gateway for (0,1)
	b := topo.Attach(2, rx)      // switch 2 its peer
	grantBoth(t, topo, a, b)
	gl := topo.GlobalLinks(0, 1)
	if len(gl) != 2 {
		t.Fatalf("expected 2 global links, got %v", gl)
	}
	fwd := func(id LinkID) uint64 {
		for _, l := range topo.Links() {
			if l.ID == id {
				return l.Stats.Forwarded
			}
		}
		t.Fatalf("link %v not found", id)
		return 0
	}

	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 1 || fwd(gl[0]) != 1 {
		t.Fatalf("healthy traffic not on preferred link: delivered=%d preferred=%d", len(rx.pkts), fwd(gl[0]))
	}

	if err := topo.SetGlobalLinkDown(0, 1, 0, true); err != nil {
		t.Fatal(err)
	}
	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 2 {
		t.Fatal("traffic not rerouted around the failed preferred link")
	}
	if fwd(gl[0]) != 1 || fwd(gl[1]) != 1 {
		t.Errorf("reroute counters: preferred=%d alternate=%d, want 1/1", fwd(gl[0]), fwd(gl[1]))
	}

	if err := topo.SetGlobalLinkDown(0, 1, 0, false); err != nil {
		t.Fatal(err)
	}
	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 3 || fwd(gl[0]) != 2 {
		t.Errorf("recovered preferred link not re-used: delivered=%d preferred=%d", len(rx.pkts), fwd(gl[0]))
	}
}

func TestTopologyRoutesAroundFarSideTrunkFailure(t *testing.T) {
	// The preferred global link is up but the intra-group trunk on its
	// far side is down: minimal routing must treat that whole path as
	// dead and pick the alternate global link whose far side is live,
	// instead of crossing to a gateway that can only drop the packet.
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 2, GlobalLinksPerPair: 2})
	rx := &sink{}
	a := topo.Attach(0, &sink{}) // switch 0: gateway of the preferred global link 0<->2
	b := topo.Attach(3, rx)      // switch 3: behind the far-side intra trunk 2->3
	grantBoth(t, topo, a, b)
	if err := topo.SetTrunkDown(2, 3, true); err != nil {
		t.Fatal(err)
	}
	sendOne(eng, topo, a, b, 64)
	eng.Run()
	if len(rx.pkts) != 1 {
		t.Fatalf("packet not rerouted around the dead far-side trunk: %d delivered, drops %v",
			len(rx.pkts), topo.Stats().Drops)
	}
	// The live path is 0->1 intra, 1->3 global: the second global link
	// must carry the packet, the preferred one nothing.
	gl := topo.GlobalLinks(0, 1)
	for _, l := range topo.Links() {
		switch l.ID {
		case gl[0]:
			if l.Stats.Forwarded != 0 {
				t.Errorf("preferred global link carried %d packets despite dead far side", l.Stats.Forwarded)
			}
		case gl[1]:
			if l.Stats.Forwarded != 1 {
				t.Errorf("alternate global link forwarded %d, want 1", l.Stats.Forwarded)
			}
		}
	}
}

func TestTopologyAllGlobalLinksDownDropsAtGateway(t *testing.T) {
	// With every global link down, a packet already inside the source
	// group (heading for its gateway) dies at an intermediate switch —
	// the trunk hop's drop path — not silently.
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 2})
	rx := &sink{}
	a := topo.Attach(1, &sink{}) // non-gateway: first hop is intra-group
	b := topo.Attach(2, rx)
	grantBoth(t, topo, a, b)
	sendOne(eng, topo, a, b, 1<<20)
	// Kill the global link while the packet crosses the intra-group trunk
	// toward the gateway (switch 0).
	eng.After(60*time.Microsecond, func() {
		if err := topo.SetGlobalLinkDown(0, 1, -1, true); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if len(rx.pkts) != 0 {
		t.Fatal("packet crossed a fully failed group boundary")
	}
	gw := topo.Switches()[0]
	if got := gw.Stats().Drops[DropLinkDown]; got != 1 {
		t.Errorf("gateway link_down drops = %d, want 1", got)
	}
	if got := topo.TrunkDrops(); got != 1 {
		t.Errorf("trunk drops = %d, want 1", got)
	}
}

func TestTopologyCongestionSerializesOnTrunk(t *testing.T) {
	// Two flows sharing one global trunk must queue behind each other:
	// with zero jitter, the second message's delivery is pushed out by
	// exactly the first one's serialization time.
	spec := TopologySpec{Groups: 2, SwitchesPerGroup: 1}
	arrivalGap := func(second bool) sim.Time {
		eng := sim.NewEngine(1)
		topo := NewTopology(eng, testConfig(), spec)
		rx := &sink{}
		a1 := topo.Attach(0, &sink{})
		a2 := topo.Attach(0, &sink{})
		b := topo.Attach(1, rx)
		for _, ad := range []Addr{a1, a2, b} {
			if err := topo.GrantVNI(ad, 5); err != nil {
				t.Fatal(err)
			}
		}
		sendOne(eng, topo, a1, b, 1<<20)
		if second {
			sendOne(eng, topo, a2, b, 1<<20)
		}
		eng.Run()
		return eng.Now()
	}
	solo := arrivalGap(false)
	both := arrivalGap(true)
	if both <= solo {
		t.Fatalf("competing flow did not queue: solo end %v, contended end %v", solo, both)
	}
}

func TestTopologyUtilizationAccounting(t *testing.T) {
	eng, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 1})
	rx := &sink{}
	a := topo.Attach(0, &sink{})
	b := topo.Attach(1, rx)
	grantBoth(t, topo, a, b)
	sendOne(eng, topo, a, b, 1<<20)
	eng.Run()
	utils := topo.LinkUtils()
	var busy float64
	for _, u := range utils {
		if u.Kind == "global" && u.Forwarded > 0 {
			busy = u.Utilization
		}
	}
	if busy <= 0 || busy > 1 {
		t.Errorf("global link utilization %v outside (0,1]", busy)
	}
}

func TestTopologySpecValidation(t *testing.T) {
	if _, err := (TopologySpec{Groups: 2, SwitchesPerGroup: 1, GlobalLinksPerPair: 3}).Normalize(); err == nil {
		t.Error("over-subscribed globalLinksPerPair accepted")
	}
	if _, err := (TopologySpec{NodesPerSwitch: -1}).Normalize(); err == nil {
		t.Error("negative nodesPerSwitch accepted")
	}
	sp, err := TopologySpec{}.Normalize()
	if err != nil || sp.Groups != 1 || sp.SwitchesPerGroup != 1 || sp.GlobalLinksPerPair != 1 {
		t.Errorf("zero spec not defaulted: %+v err=%v", sp, err)
	}
}

func TestTopologyNodeStriping(t *testing.T) {
	_, topo := newTopo(t, TopologySpec{Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 2})
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 0} // wraps past the last switch
	for i, w := range want {
		if got := topo.SwitchForNode(i); got != w {
			t.Errorf("node %d on switch %d, want %d", i, got, w)
		}
	}
	_, flat := newTopo(t, TopologySpec{})
	for i := 0; i < 5; i++ {
		if got := flat.SwitchForNode(i); got != 0 {
			t.Errorf("default topology: node %d on switch %d, want 0", i, got)
		}
	}
}
