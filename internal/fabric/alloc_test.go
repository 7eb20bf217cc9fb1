package fabric

import (
	"testing"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// discard drops delivered packets: what is counted below is the fabric's
// allocation, not a receiver's.
type discard struct{}

func (discard) ReceivePacket(*Packet) {}

// allocRuns is how many measured calls each test below hands AllocsPerRun,
// which adds one warm-up call of its own.
const allocRuns = 512

// allocFabric is a dragonfly with perSwitch endpoints on every switch, all
// granted VNI 5, and one host link per endpoint: the shape the forwarding
// benchmarks (perfsuite.FabricGroups, perfsuite.FabricFleet) run on.
func allocFabric(t *testing.T, spec TopologySpec, perSwitch int) (*sim.Engine, *Topology, []Addr, []*HostLink) {
	t.Helper()
	eng := sim.NewEngine(1)
	topo := NewTopology(eng, DefaultConfig(), spec)
	var addrs []Addr
	var links []*HostLink
	for i := range topo.Switches() {
		for k := 0; k < perSwitch; k++ {
			addr := topo.Attach(i, discard{})
			if err := topo.GrantVNI(addr, 5); err != nil {
				t.Fatal(err)
			}
			sw, _ := topo.SwitchFor(addr)
			addrs = append(addrs, addr)
			links = append(links, NewHostLink(eng, sw))
		}
	}
	return eng, topo, addrs, links
}

// TestPacketForwardAvoidsAllocation: one packet forwarded across a 4-group
// dragonfly — host link, ingress check, cached route, up to three trunks,
// egress port — allocates nothing once every pair has been routed once:
// inject, hop, deliver and drop records come off the switch's and the
// topology's free lists, link arrivals ride lanes, routes are cached per
// epoch. The stride visits local, intra-group and inter-group pairs.
func TestPacketForwardAvoidsAllocation(t *testing.T) {
	eng, topo, addrs, links := allocFabric(t, TopologySpec{Groups: 4, SwitchesPerGroup: 2}, 2)
	var p Packet
	var l *HostLink
	send := func() { l.Send(&p) }
	i := 0
	one := func() {
		src := i % len(addrs)
		dst := (i*7 + 1) % len(addrs)
		if dst == src {
			dst = (dst + 1) % len(addrs)
		}
		i++
		p = Packet{Src: addrs[src], Dst: addrs[dst], VNI: 5, TC: TCBulkData, PayloadBytes: 1024, Frames: 1, Last: true}
		l = links[src]
		eng.After(0, send)
		eng.Run()
	}
	for k := 0; k < 4*len(addrs); k++ { // every (src, dst) of the stride routed, free lists filled
		one()
	}
	before := topo.Stats()
	if allocs := testing.AllocsPerRun(allocRuns, one); allocs != 0 {
		t.Errorf("forwarding one packet allocates %.1f objects, want 0", allocs)
	}
	after := topo.Stats()
	if got := after.Forwarded - before.Forwarded; got != allocRuns+1 || after.DropTotal() != 0 {
		t.Errorf("forwarded %d of %d packets, %d dropped", got, allocRuns+1, after.DropTotal())
	}
	if after.TrunkForwarded == before.TrunkForwarded {
		t.Error("no packet crossed a trunk: the stride no longer leaves the source switch")
	}
}

// TestFlowTransferAvoidsAllocation: one 4 MiB bulk transfer through the
// flow fast path on a 512-endpoint fleet (16 groups × 4 switches × 8
// nodes), always to another switch, allocates nothing in steady state: the
// whole burst is one pooled delivery event however many frames it stands
// for.
func TestFlowTransferAvoidsAllocation(t *testing.T) {
	const payload = 4 << 20
	eng, topo, addrs, links := allocFabric(t, TopologySpec{Groups: 16, SwitchesPerGroup: 4, NodesPerSwitch: 8}, 8)
	mtu := DefaultConfig().MTU
	frames := (payload + mtu - 1) / mtu
	n := len(addrs)
	var p Packet
	i := 0
	one := func() {
		src := i % n
		dst := (src + n/2) % n
		i++
		p = Packet{Src: addrs[src], Dst: addrs[dst], VNI: 5, TC: TCBulkData, PayloadBytes: payload, Frames: frames, Last: true}
		if _, ok := links[src].SendFlow(&p, FidelityFlow, frames); !ok {
			t.Fatalf("flow path refused transfer %d->%d", src, dst)
		}
		eng.Run()
	}
	for k := 0; k < n; k++ { // every source's route cached
		one()
	}
	before, elided := topo.Stats(), eng.Elided
	if allocs := testing.AllocsPerRun(allocRuns, one); allocs != 0 {
		t.Errorf("one flow-fidelity transfer allocates %.1f objects, want 0", allocs)
	}
	after := topo.Stats()
	if got := after.Forwarded - before.Forwarded; got != allocRuns+1 || after.DropTotal() != 0 {
		t.Errorf("delivered %d of %d transfers, %d dropped", got, allocRuns+1, after.DropTotal())
	}
	if eng.Elided == elided {
		t.Error("no events elided: the transfers did not take the flow fast path")
	}
}
