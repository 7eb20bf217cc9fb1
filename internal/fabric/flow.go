package fabric

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Fidelity selects how a transfer traverses the fabric.
//
// Packet fidelity walks every frame hop by hop — one event per host-link
// arrival, trunk arrival, intermediate forward and local delivery — and is
// exact by construction. Flow fidelity completes a bulk transfer in O(1)
// events: the arrival time and the per-link byte/busy-until deltas are
// computed analytically from the same busy-until link model, charging the
// same counters the packet path would. A frame-granular transfer is
// modelled as its frames pipelined through the stages (see burst), so an
// uncontended transfer ends where the packet path's does: to the
// nanosecond when it is one frame or a coalesced burst, within 2 % when it
// is many (the packet path draws jitter per frame, the flow path per
// stage, and sizes the last, shorter frame like the others), and orders of
// magnitude cheaper to simulate. Hybrid is flow with a guard: a transfer
// whose route shows
// queueing (busy-until overlap) beyond Config.FlowCongestionThreshold falls
// back to the packet path, so congestion dynamics, drop accounting and
// reroute behavior stay packet-exact exactly where they matter.
//
// Every fidelity falls back to the packet path on structural trouble — a
// down port or link, a missing route, an ACL or partition miss — because
// the packet path owns drop accounting; the fast path commits nothing
// unless the whole transfer completes cleanly.
type Fidelity uint8

// The fidelity modes. The zero value is full packet fidelity, so existing
// callers and scenarios are byte-identical by default.
const (
	FidelityPacket Fidelity = iota
	FidelityFlow
	FidelityHybrid
)

// String names the mode as scenarios and flags spell it.
func (f Fidelity) String() string {
	switch f {
	case FidelityFlow:
		return "flow"
	case FidelityHybrid:
		return "hybrid"
	default:
		return "packet"
	}
}

// ParseFidelity validates a fidelity name from a scenario file or flag.
// The empty string means packet, so omitted keys keep the exact default.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "packet":
		return FidelityPacket, nil
	case "flow":
		return FidelityFlow, nil
	case "hybrid":
		return FidelityHybrid, nil
	}
	return FidelityPacket, fmt.Errorf("fabric: unknown fidelity %q (want packet, flow or hybrid)", s)
}

// SendFlow attempts the flow-level fast path for one bulk transfer of
// packets frames (1 for a coalesced burst, the frame count in
// frame-granular mode), pipelined through its stages (see burst). On
// success it applies every counter and busy-until delta the packet path
// would have applied — host link, source switch, each trunk link on the
// (frozen) minimal route, destination switch and egress port — schedules
// exactly one delivery event, at the last frame's arrival, credits the
// engine's Elided counter with the events skipped, and returns the
// local-completion time (last bit off the NIC), exactly as Send does.
//
// ok=false means the fast path declined and mutated nothing: the caller
// must send through the packet path, which owns all drop accounting. That
// happens when fid is FidelityPacket, when any admission check Inject
// would drop on fails (invalid TC, ingress/egress ACL, down port,
// partition, no live minimal route), or — hybrid only — when any stage of
// the route would queue longer than Config.FlowCongestionThreshold.
//
// Counters are charged once per transfer (one Injected, one Forwarded per
// link), as for a coalesced burst. Like Send, SendFlow must be called from
// within the event loop.
func (l *HostLink) SendFlow(p *Packet, fid Fidelity, packets int) (sim.Time, bool) {
	if fid == FidelityPacket {
		return 0, false
	}
	if packets < 1 {
		packets = 1
	}
	sw := l.sw
	// Read-only mirror of Inject's admission checks: any condition the
	// packet path would drop on declines the fast path instead, so drops
	// are decided (and counted) in exactly one place.
	if !p.TC.Valid() {
		return 0, false
	}
	in := sw.port(p.Src)
	if in == nil || !in.vnis[p.VNI] || in.down {
		return 0, false
	}
	if sw.partition != nil && sw.partition[p.Src] != sw.partition[p.Dst] {
		return 0, false
	}
	if out := sw.port(p.Dst); out != nil {
		return l.flowLocal(p, out, fid, packets)
	}
	if sw.flowRoute == nil {
		return 0, false // bare switch outside a Topology: no remote routes
	}
	return sw.flowRoute(p, l, fid, packets)
}

// burst is a flow-level transfer on its way through a route's stages —
// host link, trunk links, egress port — as n frames pipelined behind one
// another. head is when the first frame reaches the next stage; slow is the
// largest per-frame time of the stages passed, the pipeline's bottleneck,
// so the last frame trails the first by (n-1)·slow. With n = 1 this is the
// store-and-forward arithmetic of one packet, so the packet path's
// delivery leg uses it too.
type burst struct {
	n    int
	head sim.Time
	slow sim.Duration
}

// pass moves the burst through one stage whose first frame starts at
// start and which takes tx for all n frames, then prop to reach the next
// stage. A frame takes f = tx/n in whole nanoseconds, as each of the packet
// path's frames does. The stage cannot send its last frame before the
// slowest stage so far has delivered it, so it finishes — its new
// busy-until, which pass returns — at start + f + (n-1)·slow, not at
// start + n·f when an earlier stage is slower.
func (b *burst) pass(start sim.Time, tx, prop sim.Duration) sim.Time {
	f := tx / sim.Duration(b.n)
	if f > b.slow {
		b.slow = f
	}
	b.head = start.Add(f).Add(prop)
	return start.Add(f).Add(sim.Duration(b.n-1) * b.slow)
}

// last is when the last frame arrives at the stage after the last pass.
func (b *burst) last() sim.Time { return b.head.Add(sim.Duration(b.n-1) * b.slow) }

// flowLocal completes a same-switch transfer analytically: host-link
// serialization, injection, and the shared delivery leg (flowDeliver),
// with the same arithmetic and jitter-draw order as Send → Inject →
// deliver on one coalesced packet.
func (l *HostLink) flowLocal(p *Packet, out *port, fid Fidelity, packets int) (sim.Time, bool) {
	sw := l.sw
	if out.down || !out.vnis[p.VNI] {
		return 0, false
	}
	now := l.eng.Now()
	hostStart := now
	if l.busyAt > hostStart {
		hostStart = l.busyAt
	}
	if fid == FidelityHybrid {
		thr := sw.cfg.FlowCongestionThreshold
		if hostStart.Sub(now) > thr {
			return 0, false
		}
		// Egress wait the delivery leg would see, planned without jitter
		// (conservative for TCLowLatency, whose cut-in caps the real wait).
		plan := burst{n: packets}
		plan.pass(hostStart, sw.wireTime(p.WireBytes(sw.cfg.FrameHeaderBytes)), sw.cfg.PropagationDelay)
		if out.egressAt.Sub(plan.head.Add(sw.cfg.SwitchLatency)) > thr {
			return 0, false
		}
	}
	b := burst{n: packets}
	hostEnd := b.pass(hostStart, l.eng.Jitter(sw.wireTime(p.WireBytes(sw.cfg.FrameHeaderBytes)), sw.cfg.JitterFrac), sw.cfg.PropagationDelay)
	l.busyAt = hostEnd
	sw.stats.Injected++
	sw.stats.InjectedBytes += uint64(p.PayloadBytes)
	sw.flowDeliver(p, b, out)
	// The packet path runs 2 events per local packet (host-link arrival +
	// local delivery); the fast path scheduled exactly one.
	l.eng.Elided += uint64(packets)*2 - 1
	return hostEnd, true
}

// flowFrom builds the flow-route callback for one edge switch, the remote
// half of SendFlow. Like routeFrom it is invoked on the engine goroutine
// and touches only topology and engine state.
func (t *Topology) flowFrom(sw *Switch) func(p *Packet, hl *HostLink, fid Fidelity, packets int) (sim.Time, bool) {
	ci := sw.index
	return func(p *Packet, hl *HostLink, fid Fidelity, packets int) (sim.Time, bool) {
		return t.flowSend(ci, p, hl, fid, packets)
	}
}

// flowSend is the topology half of the flow fast path: plan, then commit.
//
// The plan phase walks the minimal route from switch ci to the
// destination's edge switch through peekNextLink — the same epoch-cached
// resolution the packet path serves, minus its drop charging — and
// accumulates unjittered stage times against each link's busy-until. It
// mutates nothing, so any dead link, missing route, or (hybrid) queueing
// wait beyond the congestion threshold abandons the transfer to the
// packet path with the fabric untouched.
//
// The commit phase replays the planned route with jitter draws in exactly
// the order the packet path would draw them for one coalesced packet —
// one per stage, where a frame-granular packet path draws one per frame —
// and charges the same counters: source-switch Injected/TrunkForwarded, per-
// link busy-until/utilization/Forwarded/Bytes, and the destination's
// delivery leg via flowDeliver. Intermediate switches carry no SwitchStats
// on the packet path either (transit is visible only in link stats), so
// per-switch flow-balance conservation holds identically.
//
// The route is frozen at send time — the packet path re-resolves per hop
// mid-flight — which is the other fidelity caveat: a link failure while a
// flow-level transfer is "on the wire" neither drops nor reroutes it.
func (t *Topology) flowSend(ci int, p *Packet, hl *HostLink, fid Fidelity, packets int) (sim.Time, bool) {
	src := t.switches[ci]
	dsw, ok := t.SwitchFor(p.Dst)
	if !ok || dsw == src {
		return 0, false
	}
	di := dsw.index
	out := dsw.port(p.Dst)
	if out == nil || out.down || !out.vnis[p.VNI] {
		return 0, false
	}

	thr := src.cfg.FlowCongestionThreshold
	now := t.eng.Now()
	hostStart := now
	if hl.busyAt > hostStart {
		hostStart = hl.busyAt
	}
	if fid == FidelityHybrid && hostStart.Sub(now) > thr {
		return 0, false
	}

	// Plan: minimal routes take at most one intra hop, one global hop and
	// one far-side intra hop, hence the fixed-size route buffer.
	var route [3]*link
	nLinks := 0
	wb := p.WireBytes(t.cfg.FrameHeaderBytes)
	plan := burst{n: packets}
	plan.pass(hostStart, src.wireTime(p.WireBytes(src.cfg.FrameHeaderBytes)), src.cfg.PropagationDelay)
	for cur := ci; cur != di; {
		l, _ := t.peekNextLink(cur, di)
		if l == nil || nLinks == len(route) {
			return 0, false
		}
		arrive := plan.head
		if nLinks > 0 {
			arrive = arrive.Add(t.cfg.SwitchLatency)
		}
		start := arrive
		if l.busyAt > start {
			start = l.busyAt
		}
		if fid == FidelityHybrid && start.Sub(arrive) > thr {
			return 0, false
		}
		plan.pass(start, wireTime(l.bwBits, wb), l.prop)
		route[nLinks] = l
		nLinks++
		cur = l.id.To
	}
	if fid == FidelityHybrid && out.egressAt.Sub(plan.head.Add(dsw.cfg.SwitchLatency)) > thr {
		return 0, false
	}

	// Commit.
	b := burst{n: packets}
	hostTx := t.eng.Jitter(src.wireTime(p.WireBytes(src.cfg.FrameHeaderBytes)), src.cfg.JitterFrac)
	hostEnd := b.pass(hostStart, hostTx, src.cfg.PropagationDelay)
	hl.busyAt = hostEnd
	src.stats.Injected++
	src.stats.InjectedBytes += uint64(p.PayloadBytes)
	src.stats.TrunkForwarded++
	for i := 0; i < nLinks; i++ {
		l := route[i]
		start := b.head
		if i > 0 {
			start = start.Add(t.eng.Jitter(t.cfg.SwitchLatency, t.cfg.JitterFrac))
		}
		if l.busyAt > start {
			start = l.busyAt
		}
		tx := t.eng.Jitter(wireTime(l.bwBits, wb), t.cfg.JitterFrac)
		l.busyAt = b.pass(start, tx, l.prop)
		// Utilization counts serialization only: n frames of tx/n each,
		// not the gaps a slower earlier stage leaves between them.
		l.busyAccum += tx - tx%sim.Duration(packets)
		l.stats.Forwarded++
		l.stats.Bytes += uint64(p.PayloadBytes)
	}
	dsw.flowDeliver(p, b, out)

	// Per packet the packet path runs one host-link arrival, one trunk
	// arrival per link, one forwarding event per intermediate switch and
	// one local delivery: 2*links+1 events. The fast path scheduled one.
	t.eng.Elided += uint64(packets)*uint64(2*nLinks+1) - 1
	return hostEnd, true
}
