package fabric

import "github.com/caps-sim/shs-k8s/internal/sim"

// HostLink models the cable between a NIC and its switch port in the
// NIC-to-switch direction. The switch handles the reverse direction with
// its per-port egress serializer. A NIC owns exactly one HostLink.
type HostLink struct {
	eng    *sim.Engine
	sw     *Switch
	busyAt sim.Time
	// arrivals carries the injection events: busyAt only moves forward,
	// so each frame reaches the switch no earlier than the one before.
	arrivals sim.Lane
}

// NewHostLink creates the uplink for a NIC attached to sw.
func NewHostLink(eng *sim.Engine, sw *Switch) *HostLink {
	return &HostLink{eng: eng, sw: sw, arrivals: sim.NewLane(eng)}
}

// Send serializes the packet onto the host link and schedules its injection
// into the switch. It returns the virtual time at which the last bit leaves
// the NIC (i.e., when the NIC's DMA engine is free to start the next frame).
// Must be called from within the event loop.
func (l *HostLink) Send(p *Packet) sim.Time {
	cfg := &l.sw.cfg
	now := l.eng.Now()
	start := now
	if l.busyAt > start {
		start = l.busyAt
	}
	tx := l.eng.Jitter(l.sw.wireTime(p.WireBytes(cfg.FrameHeaderBytes)), cfg.JitterFrac)
	end := start.Add(tx)
	l.busyAt = end

	in := l.sw.injects.Get()
	in.sw, in.pkt = l.sw, *p
	l.arrivals.AtCall(end.Add(cfg.PropagationDelay), injectCall, in)
	return end
}

// injectArg is the recycled argument of a host-link arrival event: the
// packet copy that used to live in a per-send closure rides here instead,
// so the NIC-to-switch leg allocates nothing in steady state. It lives on
// the free list of the switch it injects into and keeps sw for life.
type injectArg struct {
	sw  *Switch
	pkt Packet
}

func injectCall(a any) {
	in := a.(*injectArg)
	// The packet stays in the recycled struct for the duration of the call
	// (copying it to a local would force a fresh heap copy, since &pkt
	// flows into indirect calls); Inject copies anything it keeps, so the
	// struct is returned once it comes back.
	in.sw.Inject(&in.pkt)
	in.pkt = Packet{}
	in.sw.injects.Put(in)
}
