package fabric

import (
	"fmt"
	"sync"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Config sets the physical parameters of the fabric. The defaults follow
// published Slingshot characteristics: 200 Gbps per port, ~350 ns switch
// traversal, short copper propagation delay and an HPC-Ethernet style frame
// format.
type Config struct {
	// LinkBandwidthBits is the per-port line rate in bits per second.
	LinkBandwidthBits float64
	// PropagationDelay is the one-way cable delay per hop.
	PropagationDelay time.Duration
	// SwitchLatency is the Rosetta forwarding latency per packet.
	SwitchLatency time.Duration
	// MTU is the maximum frame payload in bytes.
	MTU int
	// FrameHeaderBytes is the per-frame header/CRC overhead on the wire.
	FrameHeaderBytes int
	// JitterFrac adds uniform ±frac per-packet noise to every timed stage.
	JitterFrac float64
	// RunSigma is the standard deviation of a *systemic* per-run speed
	// factor sampled once at switch creation: it models the run-to-run
	// drift (clock, thermal, placement state) behind the "inherent
	// experimental variability" the paper reports, which per-packet
	// jitter alone would average away over 10k-iteration benchmarks.
	RunSigma float64
	// FlowCongestionThreshold bounds how long a hybrid-fidelity transfer
	// may queue at any stage of its route (host link, each trunk, the
	// destination egress port) and still take the flow-level fast path;
	// beyond it the transfer falls back to packet fidelity so congestion
	// dynamics stay exact. See the Fidelity type. Zero means any queueing
	// at all forces the packet path.
	FlowCongestionThreshold time.Duration
}

// DefaultConfig returns the Slingshot-calibrated parameters.
func DefaultConfig() Config {
	return Config{
		LinkBandwidthBits: 200e9,
		PropagationDelay:  30 * time.Nanosecond,
		SwitchLatency:     350 * time.Nanosecond,
		MTU:               2048,
		FrameHeaderBytes:  64,
		JitterFrac:        0.006,
		RunSigma:          0.004,
		// One microsecond of queueing ≈ 25 KiB of residual occupancy at
		// 200 Gbps: enough to ignore incidental overlap, small enough that
		// real contention drops hybrid runs back to packet fidelity.
		FlowCongestionThreshold: time.Microsecond,
	}
}

// SwitchStats counts forwarding outcomes; all counters are cumulative.
type SwitchStats struct {
	// Injected counts packets entering the fabric at this switch from host
	// ports (Inject calls); packets arriving over trunks are not re-counted.
	// Together with Forwarded and Drops it closes the conservation equation
	// the fuzz harness checks: once the event queue drains, every injected
	// packet was either delivered or dropped, nowhere lost, nowhere doubled.
	Injected uint64
	// InjectedBytes is the payload volume behind Injected.
	InjectedBytes  uint64
	Forwarded      uint64
	ForwardedBytes uint64
	// TrunkForwarded counts packets handed to another switch in a mesh.
	TrunkForwarded uint64
	Drops          map[DropReason]uint64
	// DroppedBytes is the payload volume behind all Drops, so conservation
	// holds for bytes as well as packets.
	DroppedBytes uint64
}

// DropTotal sums the per-reason drop counters.
func (st *SwitchStats) DropTotal() uint64 {
	var n uint64
	for _, v := range st.Drops {
		n += v
	}
	return n
}

// port is one switch port with an attached device and an egress serializer.
type port struct {
	addr     Addr
	recv     Receiver
	vnis     map[VNI]bool
	egressAt sim.Time // link busy-until for egress serialization
	// perTC accounting of egress bytes, for observability.
	egressBytes [numTrafficClasses]uint64
	// down marks an administratively failed port (NIC/cable fault injected
	// by the scenario engine); all traffic through it is dropped.
	down bool
	// deliveries carries the egress link's delivery events. egressAt only
	// moves forward except for the low-latency cut-in, which the lane
	// takes as an ordinary out-of-order post.
	deliveries sim.Lane
}

// Switch is a single Rosetta-style switch. For the two-node OpenCUBE pilot
// deployment the paper evaluates on, one switch is the whole fabric; larger
// topologies assemble switches into a Topology. Like everything in this
// package, a Switch is confined to its engine's goroutine (see the package
// documentation for the threading contract), so the forwarding path is
// lock-free.
type Switch struct {
	eng *sim.Engine
	cfg Config
	// ports is indexed by Addr: the allocator issues addresses densely
	// from 1, so the per-packet lookups are array reads. Entries of
	// addresses attached elsewhere in a topology, or detached, are nil.
	ports []*port
	stats SwitchStats
	name  string
	// index is the switch's position in its Topology (0 standalone).
	index int
	// addrAlloc issues fabric addresses; meshed switches share one so
	// addresses stay globally unique.
	addrAlloc *addrAllocator

	// remoteRoute, when set (by a Topology), is consulted for
	// destinations that are not local ports before dropping with
	// no_route. The ingress ACL has already passed when it is called.
	remoteRoute func(p *Packet) routeVerdict

	// flowRoute, when set (by a Topology), carries a flow-level transfer
	// (SendFlow) across trunks analytically. Nil on a standalone switch,
	// where only same-switch flow transfers are possible.
	flowRoute func(p *Packet, hl *HostLink, fid Fidelity, packets int) (sim.Time, bool)

	// onAttach, when set (by a Topology), observes every port attachment
	// so the fabric records which edge switch owns each address.
	onAttach func(addr Addr, s *Switch)

	// dropHook, when set, observes every dropped packet (used by tests and
	// by the isolation examples to demonstrate enforcement).
	dropHook func(p *Packet, r DropReason)

	// partition, when non-nil, assigns each address a partition group;
	// packets whose source and destination groups differ are dropped.
	// Addresses absent from the map are in group 0.
	partition map[Addr]int

	// Free lists of the event arguments this switch schedules. They are
	// the switch's own because the switch is confined to its engine's
	// goroutine (see the package documentation).
	injects  sim.FreeList[injectArg]
	delivers sim.FreeList[localDeliver]
	drops    sim.FreeList[dropNotify]
}

// addrAllocator issues globally unique fabric addresses.
type addrAllocator struct {
	mu   sync.Mutex
	next uint64
}

func (a *addrAllocator) alloc() Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.next++
	return Addr(a.next)
}

// NewSwitch creates a switch driven by eng.
func NewSwitch(name string, eng *sim.Engine, cfg Config) *Switch {
	if cfg.MTU <= 0 {
		panic("fabric: config MTU must be positive")
	}
	// Systemic per-run drift: one multiplicative factor for this
	// instantiation of the fabric.
	f := eng.RunDrift(cfg.RunSigma)
	cfg.LinkBandwidthBits *= 1 + f
	cfg.SwitchLatency = time.Duration(float64(cfg.SwitchLatency) * (1 - f))
	return &Switch{
		eng:       eng,
		cfg:       cfg,
		stats:     SwitchStats{Drops: make(map[DropReason]uint64)},
		name:      name,
		addrAlloc: &addrAllocator{},
	}
}

// Config returns the switch's physical configuration.
func (s *Switch) Config() Config { return s.cfg }

// Name returns the switch's name ("rosetta3" in a topology).
func (s *Switch) Name() string { return s.name }

// PortDown reports whether the port is administratively down; false for
// unknown addresses.
func (s *Switch) PortDown(addr Addr) bool {
	p := s.port(addr)
	return p != nil && p.down
}

// port returns the port holding addr, nil when this switch has none.
func (s *Switch) port(addr Addr) *port {
	if int(addr) < len(s.ports) {
		return s.ports[addr]
	}
	return nil
}

// putAt stores v at table[addr], growing the table with zero entries up to
// it: the insert of the Addr-indexed tables (Switch.ports, Topology.owner).
func putAt[T any](table []T, addr Addr, v T) []T {
	for int(addr) >= len(table) {
		var zero T
		table = append(table, zero)
	}
	table[addr] = v
	return table
}

// Attach connects a receiver to the switch and assigns it a fabric address.
func (s *Switch) Attach(r Receiver) Addr {
	addr := s.addrAlloc.alloc()
	s.ports = putAt(s.ports, addr, &port{addr: addr, recv: r, vnis: make(map[VNI]bool), deliveries: sim.NewLane(s.eng)})
	if s.onAttach != nil {
		s.onAttach(addr, s)
	}
	return addr
}

// Detach removes a port. Packets in flight to it are dropped silently.
func (s *Switch) Detach(addr Addr) {
	if s.port(addr) != nil {
		s.ports[addr] = nil
	}
}

// GrantVNI authorizes a port for a VNI. On a real system the fabric manager
// programs this into Rosetta; here the CXI driver model calls it when a CXI
// service activates a VNI on a NIC.
func (s *Switch) GrantVNI(addr Addr, vni VNI) error {
	p := s.port(addr)
	if p == nil {
		return fmt.Errorf("fabric: grant vni %d: no port %d", vni, addr)
	}
	p.vnis[vni] = true
	return nil
}

// RevokeVNI removes a port's authorization for a VNI.
func (s *Switch) RevokeVNI(addr Addr, vni VNI) error {
	p := s.port(addr)
	if p == nil {
		return fmt.Errorf("fabric: revoke vni %d: no port %d", vni, addr)
	}
	delete(p.vnis, vni)
	return nil
}

// HasVNI reports whether the port is authorized for vni.
func (s *Switch) HasVNI(addr Addr, vni VNI) bool {
	p := s.port(addr)
	return p != nil && p.vnis[vni]
}

// Stats returns a copy of the forwarding counters.
func (s *Switch) Stats() SwitchStats {
	out := SwitchStats{
		Injected:       s.stats.Injected,
		InjectedBytes:  s.stats.InjectedBytes,
		Forwarded:      s.stats.Forwarded,
		ForwardedBytes: s.stats.ForwardedBytes,
		TrunkForwarded: s.stats.TrunkForwarded,
		Drops:          make(map[DropReason]uint64, len(s.stats.Drops)),
		DroppedBytes:   s.stats.DroppedBytes,
	}
	for k, v := range s.stats.Drops {
		out.Drops[k] = v
	}
	return out
}

// OnDrop registers an observer for dropped packets. The *Packet handed to
// fn is only valid for the duration of the call (it points into pooled
// storage, recycled when fn returns); hooks that keep packet data must
// copy the fields they need.
func (s *Switch) OnDrop(fn func(p *Packet, r DropReason)) {
	s.dropHook = fn
}

// SetPortDown marks a port administratively down (true) or up (false),
// modelling a NIC or cable fault. While down, every packet entering or
// leaving the port is dropped with DropLinkDown. The port keeps its address
// and VNI grants, so recovery is instant.
func (s *Switch) SetPortDown(addr Addr, down bool) error {
	p := s.port(addr)
	if p == nil {
		return fmt.Errorf("fabric: set port down: no port %d", addr)
	}
	p.down = down
	return nil
}

// SetPartition splits the fabric: each address maps to a partition group and
// packets crossing groups are dropped with DropPartitioned. Addresses absent
// from the map are in group 0. A nil map heals the partition.
func (s *Switch) SetPartition(groups map[Addr]int) {
	if groups == nil {
		s.partition = nil
		return
	}
	s.partition = make(map[Addr]int, len(groups))
	for a, g := range groups {
		s.partition[a] = g
	}
}

// wireTime returns the serialization time of n bytes at the switch's
// line rate (shared formula: routing.go wireTime).
func (s *Switch) wireTime(bytes int) time.Duration {
	return wireTime(s.cfg.LinkBandwidthBits, bytes)
}

// dropNotify is the recycled argument of a deferred drop-hook invocation.
type dropNotify struct {
	sw     *Switch
	hook   func(p *Packet, r DropReason)
	pkt    Packet
	reason DropReason
}

func dropNotifyCall(a any) {
	n := a.(*dropNotify)
	// Hooks observe the packet only for the duration of the call; the
	// struct returns to the free list afterwards (a re-entrant drop inside
	// the hook draws a different struct, since this one is not yet
	// returned).
	n.hook(&n.pkt, n.reason)
	n.hook = nil
	n.pkt = Packet{}
	n.sw.drops.Put(n)
}

func (s *Switch) drop(p *Packet, r DropReason) {
	s.stats.Drops[r]++
	s.stats.DroppedBytes += uint64(p.PayloadBytes)
	if s.dropHook != nil {
		// Run the hook via the event loop to avoid re-entrancy surprises
		// while the forwarding path is mid-flight.
		n := s.drops.Get()
		n.sw, n.hook, n.pkt, n.reason = s, s.dropHook, *p, r
		s.eng.AfterCall(0, dropNotifyCall, n)
	}
}

// dropExternal records a drop decided outside the switch's own forwarding
// path — a topology hop whose trunk link went down mid-flight.
func (s *Switch) dropExternal(p *Packet, r DropReason) {
	s.drop(p, r)
}

// InjectFromTrunk delivers a packet arriving over an inter-switch trunk:
// the ingress ACL was enforced at the source edge, so only the egress ACL
// and local delivery apply here.
func (s *Switch) InjectFromTrunk(p *Packet) {
	out := s.port(p.Dst)
	if out == nil {
		s.drop(p, DropNoRoute)
		return
	}
	if out.down {
		s.drop(p, DropLinkDown)
		return
	}
	if !out.vnis[p.VNI] {
		s.drop(p, DropVNIEgress)
		return
	}
	s.deliver(p, out)
}

// Inject is called by a NIC when a packet has finished serializing onto its
// host link. The switch performs VNI admission, routes, serializes onto the
// egress link, and delivers to the destination port. Inject must be called
// from within the simulation event loop.
func (s *Switch) Inject(p *Packet) {
	s.stats.Injected++
	s.stats.InjectedBytes += uint64(p.PayloadBytes)
	if !p.TC.Valid() {
		s.drop(p, DropInvalidTC)
		return
	}
	in := s.port(p.Src)
	if in == nil || !in.vnis[p.VNI] {
		s.drop(p, DropVNIIngress)
		return
	}
	if in.down {
		s.drop(p, DropLinkDown)
		return
	}
	if s.partition != nil && s.partition[p.Src] != s.partition[p.Dst] {
		s.drop(p, DropPartitioned)
		return
	}
	out := s.port(p.Dst)
	if out == nil {
		// Not local: a topology-member switch forwards over a trunk
		// toward the owning edge switch (ingress ACL already passed; the
		// egress ACL is enforced there). remoteRoute only touches
		// topology and engine state.
		if s.remoteRoute != nil {
			switch s.remoteRoute(p) {
			case routeForwarded:
				s.stats.TrunkForwarded++
				return
			case routeLinkDown:
				s.drop(p, DropLinkDown)
				return
			}
		}
		s.drop(p, DropNoRoute)
		return
	}
	if out.down {
		s.drop(p, DropLinkDown)
		return
	}
	if !out.vnis[p.VNI] {
		s.drop(p, DropVNIEgress)
		return
	}
	s.deliver(p, out)
}

// localDeliver is the recycled argument of a final-delivery event: the
// packet copy rides here instead of in a closure, so local delivery does
// not allocate.
type localDeliver struct {
	sw   *Switch
	recv Receiver
	pkt  Packet
}

func localDeliverCall(a any) {
	d := a.(*localDeliver)
	// Receivers do not retain *Packet past ReceivePacket (they copy what
	// they keep), so the recycled copy is handed over in place and the
	// struct returns to its switch's free list when the call comes back.
	d.recv.ReceivePacket(&d.pkt)
	d.recv = nil
	d.pkt = Packet{}
	d.sw.delivers.Put(d)
}

// deliver serializes the packet onto the egress link and schedules
// delivery.
func (s *Switch) deliver(p *Packet, out *port) {
	s.flowDeliver(p, burst{n: 1, head: s.eng.Now()}, out)
}

// flowDeliver is the shared final-delivery leg: egress accounting, port
// serialization from the burst's head arrival, and the delivery event at
// its last frame's. The packet path calls it via deliver with a one-frame
// burst arriving now; the flow fast path (see flow.go) calls it with the
// burst it carried analytically through the route, so both fidelities run
// the same arithmetic and jitter draws here. Returns the serialization end.
func (s *Switch) flowDeliver(p *Packet, b burst, out *port) sim.Time {
	s.stats.Forwarded++
	s.stats.ForwardedBytes += uint64(p.PayloadBytes)
	out.egressBytes[p.TC] += uint64(p.PayloadBytes)

	// Egress serialization: the packet occupies the egress link after any
	// already-queued traffic. Higher-priority classes are modelled with a
	// small scheduling advantage: they do not wait behind lower-priority
	// residual occupancy beyond one MTU slot.
	start := b.head.Add(s.eng.Jitter(s.cfg.SwitchLatency, s.cfg.JitterFrac))
	if out.egressAt > start {
		wait := out.egressAt.Sub(start)
		if p.TC == TCLowLatency {
			// Cut-in: a low-latency frame waits at most one MTU slot.
			maxWait := s.wireTime(s.cfg.MTU + s.cfg.FrameHeaderBytes)
			if wait > maxWait {
				wait = maxWait
			}
		}
		start = start.Add(wait)
	}
	tx := s.eng.Jitter(s.wireTime(p.WireBytes(s.cfg.FrameHeaderBytes)), s.cfg.JitterFrac)
	end := b.pass(start, tx, s.cfg.PropagationDelay)
	out.egressAt = end

	d := s.delivers.Get()
	d.sw, d.recv, d.pkt = s, out.recv, *p
	out.deliveries.AtCall(b.last(), localDeliverCall, d)
	return end
}
