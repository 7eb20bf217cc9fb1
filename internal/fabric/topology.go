package fabric

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// TopologySpec describes a multi-group dragonfly fabric: Groups of
// SwitchesPerGroup edge switches, every group internally a full mesh of
// intra-group trunks, and group pairs joined by global links. It is the
// declarative input NewTopology wires into switches and links; the zero
// value (normalized by Normalize) is the single-switch fabric of the
// paper's two-node pilot.
type TopologySpec struct {
	// Groups is the number of dragonfly groups (default 1).
	Groups int
	// SwitchesPerGroup is the edge-switch count per group (default 1).
	SwitchesPerGroup int
	// NodesPerSwitch stripes NIC attachment: node i lands on switch
	// i/NodesPerSwitch (wrapping). 0 means unbounded — every node on
	// switch 0, the seed deployment's shape.
	NodesPerSwitch int
	// GlobalLinksPerPair is how many distinct global links join each
	// group pair, spread across the groups' switches in dragonfly port
	// order (default 1). More than one enables minimal-path failover.
	GlobalLinksPerPair int
	// GlobalLinkBandwidthBits overrides the line rate of global links
	// (0 = same as Config.LinkBandwidthBits). Real systems taper global
	// bandwidth; scenarios use this to provoke inter-group congestion.
	GlobalLinkBandwidthBits float64
	// GlobalLinkPropagation overrides the one-way delay of global links
	// (0 = same as Config.PropagationDelay). Optical global cables are
	// an order of magnitude longer than in-group copper.
	GlobalLinkPropagation time.Duration
}

// DefaultTopologySpec returns the seed deployment's shape: one group, one
// switch, all nodes attached to it.
func DefaultTopologySpec() TopologySpec {
	return TopologySpec{Groups: 1, SwitchesPerGroup: 1}
}

// Normalize fills zero fields with defaults and validates the rest.
func (sp TopologySpec) Normalize() (TopologySpec, error) {
	if sp.Groups == 0 {
		sp.Groups = 1
	}
	if sp.SwitchesPerGroup == 0 {
		sp.SwitchesPerGroup = 1
	}
	if sp.GlobalLinksPerPair == 0 {
		sp.GlobalLinksPerPair = 1
	}
	if sp.Groups < 1 || sp.SwitchesPerGroup < 1 {
		return sp, fmt.Errorf("fabric: topology needs at least one group and one switch per group")
	}
	if sp.NodesPerSwitch < 0 {
		return sp, fmt.Errorf("fabric: nodesPerSwitch must be >= 0")
	}
	if sp.GlobalLinksPerPair > sp.SwitchesPerGroup {
		return sp, fmt.Errorf("fabric: globalLinksPerPair %d exceeds switchesPerGroup %d",
			sp.GlobalLinksPerPair, sp.SwitchesPerGroup)
	}
	return sp, nil
}

// LinkKind classifies a trunk link.
type LinkKind int

// Link kinds.
const (
	LinkIntraGroup LinkKind = iota // between switches of one group
	LinkGlobal                     // between groups
)

// String names the kind.
func (k LinkKind) String() string {
	if k == LinkGlobal {
		return "global"
	}
	return "intra"
}

// LinkID names one direction of a trunk link by global switch index.
type LinkID struct {
	From, To int
}

// LinkStats counts one directional link's traffic; cumulative.
type LinkStats struct {
	// Forwarded counts packets serialized onto the link.
	Forwarded uint64
	// Bytes is the payload volume carried.
	Bytes uint64
	// Drops counts packets discarded because the link (or every minimal
	// path it anchors) was down when they were due to enter it.
	Drops uint64
}

// link is one directional trunk with its own serializer and accounting.
type link struct {
	id     LinkID
	kind   LinkKind
	bwBits float64
	prop   time.Duration
	busyAt sim.Time
	// busyAccum totals serialization time, the numerator of utilization.
	busyAccum sim.Duration
	down      bool
	stats     LinkStats
	// arrivals carries the far-end arrival events: busyAt only moves
	// forward, so they are posted in time order.
	arrivals sim.Lane
}

// LinkInfo is an exported snapshot of one directional link.
type LinkInfo struct {
	ID   LinkID
	Kind LinkKind
	// From, To name the endpoint switches.
	From, To string
	Down     bool
	Stats    LinkStats
	// Utilization is the busy fraction of the link since time zero.
	Utilization float64
}

// Topology is the explicit fabric model: edge switches in dragonfly
// groups, nodes attached to specific switches, and trunk links with
// per-direction serialization (busy-until accounting), failure state and
// drop counters. Packets route minimally: at most one intra-group hop to
// the source group's gateway, one global hop, one intra-group hop in the
// destination group. The next link is re-resolved at every switch, so
// link failure and recovery reroute traffic that has not yet serialized.
//
// VNI enforcement stays at the edge, as on Rosetta: the ingress ACL is
// checked at the source edge switch, the egress ACL at the destination
// edge switch; trunks carry all VNIs.
type Topology struct {
	eng      *sim.Engine
	cfg      Config
	spec     TopologySpec
	switches []*Switch
	groupOf  []int
	// owner is indexed by Addr, like Switch.ports: the edge switch each
	// address was attached to, nil for addresses never issued here.
	owner []*Switch
	links map[LinkID]*link
	// globals lists each ordered group pair's global links in dragonfly
	// port order — the candidate set minimal routing chooses from.
	globals map[[2]int][]LinkID
	// routes is the flat (from switch, to switch) next-link cache; entries
	// are valid while their epoch matches routeEpoch (see routing.go).
	routes []routeEntry
	// routeEpoch invalidates the whole route cache when bumped; it starts
	// at 1 so zero-valued cache entries are never mistaken for valid.
	routeEpoch uint64
	// hops recycles in-flight trunk traversals (see trunkHop).
	hops sim.FreeList[trunkHop]
}

// NewTopology wires a fabric from spec. A 1×1 spec is byte-for-byte the
// single switch the seed deployment used; 1×n is one fully meshed group.
func NewTopology(eng *sim.Engine, cfg Config, spec TopologySpec) *Topology {
	spec, err := spec.Normalize()
	if err != nil {
		panic(err)
	}
	t := &Topology{
		eng:     eng,
		cfg:     cfg,
		spec:    spec,
		links:   make(map[LinkID]*link),
		globals: make(map[[2]int][]LinkID),

		routeEpoch: 1,
	}
	n := spec.Groups * spec.SwitchesPerGroup
	t.routes = make([]routeEntry, n*n)
	for i := 0; i < n; i++ {
		sw := NewSwitch(fmt.Sprintf("rosetta%d", i), eng, cfg)
		sw.index = i
		t.groupOf = append(t.groupOf, i/spec.SwitchesPerGroup)
		t.switches = append(t.switches, sw)
	}
	// Intra-group trunks: full mesh within each group, both directions.
	for g := 0; g < spec.Groups; g++ {
		base := g * spec.SwitchesPerGroup
		for i := 0; i < spec.SwitchesPerGroup; i++ {
			for j := 0; j < spec.SwitchesPerGroup; j++ {
				if i != j {
					t.addLink(LinkID{base + i, base + j}, LinkIntraGroup)
				}
			}
		}
	}
	// Global links: each group pair joined by GlobalLinksPerPair links,
	// gateway switches chosen in dragonfly port order so consecutive
	// pairs land on different switches.
	for a := 0; a < spec.Groups; a++ {
		for b := a + 1; b < spec.Groups; b++ {
			for k := 0; k < spec.GlobalLinksPerPair; k++ {
				swA := a*spec.SwitchesPerGroup + (peerOffset(a, b)+k)%spec.SwitchesPerGroup
				swB := b*spec.SwitchesPerGroup + (peerOffset(b, a)+k)%spec.SwitchesPerGroup
				t.addLink(LinkID{swA, swB}, LinkGlobal)
				t.addLink(LinkID{swB, swA}, LinkGlobal)
				t.globals[[2]int{a, b}] = append(t.globals[[2]int{a, b}], LinkID{swA, swB})
				t.globals[[2]int{b, a}] = append(t.globals[[2]int{b, a}], LinkID{swB, swA})
			}
		}
	}
	// Wire remote routing and attachment tracking; addresses must stay
	// globally unique, so the switches share one allocator.
	for _, sw := range t.switches {
		sw.remoteRoute = t.routeFrom(sw)
		sw.flowRoute = t.flowFrom(sw)
		sw.onAttach = t.adopt
	}
	for _, sw := range t.switches[1:] {
		sw.addrAlloc = t.switches[0].addrAlloc
	}
	return t
}

// peerOffset is the dragonfly port index of group b among group a's peers.
func peerOffset(a, b int) int {
	if b > a {
		return b - 1
	}
	return b
}

func (t *Topology) addLink(id LinkID, kind LinkKind) {
	l := &link{id: id, kind: kind, bwBits: t.cfg.LinkBandwidthBits, prop: t.cfg.PropagationDelay, arrivals: sim.NewLane(t.eng)}
	if kind == LinkGlobal {
		if t.spec.GlobalLinkBandwidthBits > 0 {
			l.bwBits = t.spec.GlobalLinkBandwidthBits
		}
		if t.spec.GlobalLinkPropagation > 0 {
			l.prop = t.spec.GlobalLinkPropagation
		}
	}
	t.links[id] = l
}

// Spec returns the normalized topology description.
func (t *Topology) Spec() TopologySpec { return t.spec }

// Switches returns the edge switches in global index order (group-major).
func (t *Topology) Switches() []*Switch { return t.switches }

// GroupOf returns the group of the switch with global index i.
func (t *Topology) GroupOf(i int) int { return t.groupOf[i] }

// SwitchForNode returns the global switch index node i attaches to under
// the spec's striping: i/NodesPerSwitch, wrapping past the last switch.
func (t *Topology) SwitchForNode(i int) int {
	if t.spec.NodesPerSwitch <= 0 {
		return 0
	}
	return (i / t.spec.NodesPerSwitch) % len(t.switches)
}

// Attach connects a receiver to edge switch i and records ownership for
// fabric-wide routing.
func (t *Topology) Attach(i int, r Receiver) Addr {
	return t.switches[i].Attach(r) // ownership recorded via onAttach
}

// adopt records addr as owned by sw; it runs on every switch attach, so
// devices attaching through a *Switch directly are routable fabric-wide.
func (t *Topology) adopt(addr Addr, sw *Switch) {
	t.owner = putAt(t.owner, addr, sw)
}

// SwitchFor returns the edge switch owning addr.
func (t *Topology) SwitchFor(addr Addr) (*Switch, bool) {
	if int(addr) < len(t.owner) && t.owner[addr] != nil {
		return t.owner[addr], true
	}
	return nil, false
}

// GrantVNI authorizes addr for vni at its edge switch.
func (t *Topology) GrantVNI(addr Addr, vni VNI) error {
	sw, ok := t.SwitchFor(addr)
	if !ok {
		return fmt.Errorf("fabric: topology grant: unknown addr %d", addr)
	}
	return sw.GrantVNI(addr, vni)
}

// RevokeVNI removes addr's authorization for vni at its edge switch.
func (t *Topology) RevokeVNI(addr Addr, vni VNI) error {
	sw, ok := t.SwitchFor(addr)
	if !ok {
		return fmt.Errorf("fabric: topology revoke: unknown addr %d", addr)
	}
	return sw.RevokeVNI(addr, vni)
}

// SetPortDown marks addr's port down (or up) on its owning switch.
func (t *Topology) SetPortDown(addr Addr, down bool) error {
	sw, ok := t.SwitchFor(addr)
	if !ok {
		return fmt.Errorf("fabric: set port down: unknown addr %d", addr)
	}
	return sw.SetPortDown(addr, down)
}

// PortDown reports whether addr's port is administratively down; false
// for unknown addresses.
func (t *Topology) PortDown(addr Addr) bool {
	sw, ok := t.SwitchFor(addr)
	return ok && sw.PortDown(addr)
}

// SetPartition applies one partition map fabric-wide. The check runs at
// the source edge switch (where ingress ACLs run), so the same map must
// be visible on every switch.
func (t *Topology) SetPartition(groups map[Addr]int) {
	for _, sw := range t.switches {
		sw.SetPartition(groups)
	}
}

// OnDrop registers one observer on every switch. As with Switch.OnDrop,
// the *Packet is valid only for the duration of the callback.
func (t *Topology) OnDrop(fn func(p *Packet, r DropReason)) {
	for _, sw := range t.switches {
		sw.OnDrop(fn)
	}
}

// SetTrunkDown fails (or recovers) both directions of the trunk between
// switches i and j. Every trunk state change — including recovery and the
// global-link variants, which delegate here — bumps the route epoch, so
// cached next-link decisions are re-resolved on first use.
func (t *Topology) SetTrunkDown(i, j int, down bool) error {
	a, okA := t.links[LinkID{i, j}]
	b, okB := t.links[LinkID{j, i}]
	if !okA || !okB {
		return fmt.Errorf("fabric: no trunk between switch %d and %d", i, j)
	}
	a.down = down
	b.down = down
	t.routeEpoch++
	return nil
}

// GlobalLinks returns the global links from group a to group b in
// routing-preference order.
func (t *Topology) GlobalLinks(a, b int) []LinkID {
	return append([]LinkID(nil), t.globals[[2]int{a, b}]...)
}

// SetGlobalLinkDown fails (or recovers) global links between groups a and
// b: the idx-th link in preference order, or every link when idx < 0.
// Both directions are affected.
func (t *Topology) SetGlobalLinkDown(a, b, idx int, down bool) error {
	ids := t.GlobalLinks(a, b)
	if len(ids) == 0 {
		return fmt.Errorf("fabric: no global links between groups %d and %d", a, b)
	}
	if idx >= len(ids) {
		return fmt.Errorf("fabric: groups %d-%d have %d global link(s), no index %d", a, b, len(ids), idx)
	}
	if idx >= 0 {
		ids = ids[idx : idx+1]
	}
	for _, id := range ids {
		if err := t.SetTrunkDown(id.From, id.To, down); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates forwarding counters over every switch in the fabric.
func (t *Topology) Stats() SwitchStats {
	out := SwitchStats{Drops: make(map[DropReason]uint64)}
	for _, sw := range t.switches {
		st := sw.Stats()
		out.Injected += st.Injected
		out.InjectedBytes += st.InjectedBytes
		out.Forwarded += st.Forwarded
		out.ForwardedBytes += st.ForwardedBytes
		out.TrunkForwarded += st.TrunkForwarded
		out.DroppedBytes += st.DroppedBytes
		for r, n := range st.Drops {
			out.Drops[r] += n
		}
	}
	return out
}

// Links returns a snapshot of every directional trunk link, in
// deterministic (from, to) order.
func (t *Topology) Links() []LinkInfo {
	now := t.eng.Now()
	out := make([]LinkInfo, 0, len(t.links))
	for i := range t.switches {
		for j := range t.switches {
			l, ok := t.links[LinkID{i, j}]
			if !ok {
				continue
			}
			info := LinkInfo{
				ID:    l.id,
				Kind:  l.kind,
				From:  t.switches[i].name,
				To:    t.switches[j].name,
				Down:  l.down,
				Stats: l.stats,
			}
			if now > 0 {
				info.Utilization = float64(l.busyAccum) / float64(now)
			}
			out = append(out, info)
		}
	}
	return out
}

// LinkUtils exports the trunk state in the shape internal/metrics reports:
// one entry per directional link with utilization and drop counters.
func (t *Topology) LinkUtils() []metrics.LinkUtil {
	links := t.Links()
	out := make([]metrics.LinkUtil, len(links))
	for i, l := range links {
		out[i] = metrics.LinkUtil{
			Name:        l.From + "->" + l.To,
			Kind:        l.Kind.String(),
			Bytes:       l.Stats.Bytes,
			Forwarded:   l.Stats.Forwarded,
			Drops:       l.Stats.Drops,
			Utilization: l.Utilization,
			Down:        l.Down,
		}
	}
	return out
}

// TrunkDrops sums link-level drops (packets lost to down trunks) over the
// whole fabric.
func (t *Topology) TrunkDrops() uint64 {
	var n uint64
	for _, l := range t.links {
		n += l.stats.Drops
	}
	return n
}

// GlobalLinkBytes sums payload bytes carried over global links.
func (t *Topology) GlobalLinkBytes() uint64 {
	var n uint64
	for _, l := range t.links {
		if l.kind == LinkGlobal {
			n += l.stats.Bytes
		}
	}
	return n
}
