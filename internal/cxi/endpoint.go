package cxi

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Message is a fully reassembled RDMA message delivered to an endpoint.
type Message struct {
	Src fabric.Addr
	// SrcEP is the sending endpoint's index on Src, from the frame header's
	// initiator PID index; together (Src, SrcEP) name the sending endpoint
	// even when several endpoints share one NIC.
	SrcEP int
	Size  int
	VNI   fabric.VNI
	TC    fabric.TrafficClass
}

// Endpoint is an allocated RDMA endpoint: a handle to NIC queues bound to
// one service and one VNI. All communication after allocation is
// kernel-bypass; no further authentication happens (paper §II-C:
// "Authentication against CXI services is only performed during endpoint
// creation").
type Endpoint struct {
	dev    *Device
	svcID  SvcID
	idx    int
	vni    fabric.VNI
	tc     fabric.TrafficClass
	closed bool
	// issueAt is the earliest time the next message may be issued,
	// enforcing the per-endpoint message rate bound.
	issueAt sim.Time
	handler func(Message)
	// fidelity selects the fabric execution mode for this endpoint's
	// sends; the zero value is exact packet fidelity.
	fidelity fabric.Fidelity
}

// SetFidelity selects the fabric fidelity for subsequent sends: flow or
// hybrid transfers attempt the analytic fast path and fall back to the
// packet path per fabric.Fidelity's contract. Safe to change between
// sends; in-flight messages keep the mode they were issued under.
func (ep *Endpoint) SetFidelity(f fabric.Fidelity) { ep.fidelity = f }

// Fidelity returns the endpoint's current fabric fidelity mode.
func (ep *Endpoint) Fidelity() fabric.Fidelity { return ep.fidelity }

// EPAlloc allocates an endpoint through svc for the calling process. This is
// the authenticated operation: the driver reads the caller's identity (UID/
// GID via userns-aware credentials, netns inode via procfs) and matches it
// against the service's member list, then validates the requested VNI,
// traffic class and resource limits.
func (d *Device) EPAlloc(caller nsmodel.PID, svcID SvcID, vni fabric.VNI, tc fabric.TrafficClass) (*Endpoint, error) {
	svc, ok := d.svcs[svcID]
	if !ok {
		d.stats.AuthFailures[AuthNoService]++
		return nil, fmt.Errorf("%w: %d", ErrNoSuchService, svcID)
	}
	if fail := d.checkSvc(caller, svc, vni, tc); fail != AuthOK {
		d.stats.AuthFailures[fail]++
		switch fail {
		case AuthDisabled:
			return nil, fmt.Errorf("%w: svc %d", ErrServiceDisabled, svcID)
		case AuthNotMember:
			return nil, fmt.Errorf("%w: pid %d svc %d", ErrNotAuthorized, caller, svcID)
		case AuthBadVNI:
			return nil, fmt.Errorf("%w: vni %d svc %d", ErrVNINotInService, vni, svcID)
		case AuthBadTC:
			return nil, fmt.Errorf("%w: tc %v svc %d", ErrTCNotInService, tc, svcID)
		case AuthLimits:
			return nil, fmt.Errorf("%w: svc %d", ErrResourceLimit, svcID)
		}
	}
	d.stats.AuthSuccesses++
	svc.usedTXQs++
	svc.usedEQs++
	svc.refs++
	ep := &Endpoint{dev: d, svcID: svcID, idx: d.nextEP, vni: vni, tc: tc}
	d.nextEP++
	d.eps[ep.idx] = ep
	return ep, nil
}

// Idx returns the endpoint's local index (the address peers send to).
func (ep *Endpoint) Idx() int { return ep.idx }

// VNI returns the virtual network the endpoint is bound to.
func (ep *Endpoint) VNI() fabric.VNI { return ep.vni }

// NICAddr returns the fabric address of the owning NIC.
func (ep *Endpoint) NICAddr() fabric.Addr { return ep.dev.Addr() }

// OnMessage registers the receive handler. Messages arriving with no
// handler registered are dropped (real NICs would back-pressure; the
// workloads in this repository always register handlers first).
func (ep *Endpoint) OnMessage(fn func(Message)) { ep.handler = fn }

func (ep *Endpoint) deliver(m Message) {
	if ep.closed || ep.handler == nil {
		return
	}
	ep.handler(m)
}

// Send transmits size bytes to the endpoint dstIdx on NIC dst. onComplete,
// if non-nil, fires when the NIC reports local completion (last bit has
// left the host link). Send must be called from within the event loop.
//
// The data path performs no authentication or service lookup: the VNI and
// traffic class were fixed at allocation. Isolation is enforced by the
// switch, per packet.
func (ep *Endpoint) Send(dst fabric.Addr, dstIdx int, size int, onComplete func()) error {
	if ep.closed {
		return ErrEndpointClosed
	}
	d := ep.dev
	d.nextMsg++
	msgID := d.nextMsg
	d.stats.MsgsSent++
	d.stats.BytesSent += uint64(size)

	now := d.eng.Now()
	issue := now
	if ep.issueAt > issue {
		issue = ep.issueAt
	}
	issue = issue.Add(d.eng.Jitter(d.cfg.MsgIssueGap, 0.02))
	ep.issueAt = issue

	frames := (size + d.mtu - 1) / d.mtu
	if frames == 0 {
		frames = 1
	}
	start := issue.Add(d.eng.Jitter(d.cfg.SendOverhead, 0.02))

	// Field by field: sendCall zeroes the struct before returning it, and a
	// composite literal here would build and copy all of it, pkt included.
	sa := d.sends.Get()
	sa.ep, sa.dst, sa.dstIdx, sa.size = ep, dst, dstIdx, size
	sa.frames, sa.msgID, sa.onComplete = frames, msgID, onComplete
	d.eng.AtCall(start, sendCall, sa)
	return nil
}

// sendArg is the recycled bookkeeping of one in-flight send: the DMA-issue
// event carries it instead of a closure, so the per-message transmit path
// does not allocate. It comes from the sending device's free list.
type sendArg struct {
	ep         *Endpoint
	dst        fabric.Addr
	dstIdx     int
	size       int
	frames     int
	msgID      uint64
	onComplete func()
	// pkt is scratch for the flow fast path: SendFlow's packet lives here
	// rather than in a literal so the attempt stays allocation-free even
	// when it declines and the packet path runs instead.
	pkt fabric.Packet
}

// sendCall runs when the send overhead has elapsed: it serializes the
// message onto the host link as one coalesced burst or frame by frame, and
// schedules the local-completion callback at the time the last bit leaves
// the NIC.
func sendCall(a any) {
	sa := a.(*sendArg)
	ep, d := sa.ep, sa.ep.dev
	var last sim.Time
	sent := false
	if ep.fidelity != fabric.FidelityPacket {
		// Flow fast path: the whole message as one analytic transfer. The
		// elision credit covers the events the packet path would have run,
		// frame-granular or coalesced.
		packets := sa.frames
		if d.cfg.CoalesceFrames {
			packets = 1
		}
		p := &sa.pkt // zero since the last sendCall; filled in place, not copied in
		p.Src, p.Dst, p.VNI, p.TC = d.addr, sa.dst, ep.vni, ep.tc
		p.PayloadBytes, p.Frames, p.DstIdx, p.SrcIdx = sa.size, sa.frames, sa.dstIdx, ep.idx
		p.MsgID, p.Last = sa.msgID, true
		last, sent = d.link.SendFlow(p, ep.fidelity, packets)
	}
	switch {
	case sent:
		// Flow path completed the transfer; last is the local completion.
	case d.cfg.CoalesceFrames || sa.frames == 1:
		last = d.link.Send(&fabric.Packet{
			Src: d.addr, Dst: sa.dst, VNI: ep.vni, TC: ep.tc,
			PayloadBytes: sa.size, Frames: sa.frames, DstIdx: sa.dstIdx, SrcIdx: ep.idx,
			MsgID: sa.msgID, Last: true,
		})
	default:
		remaining := sa.size
		off := 0
		for f := 0; f < sa.frames; f++ {
			chunk := d.mtu
			if chunk > remaining {
				chunk = remaining
			}
			last = d.link.Send(&fabric.Packet{
				Src: d.addr, Dst: sa.dst, VNI: ep.vni, TC: ep.tc,
				PayloadBytes: chunk, Frames: 1, DstIdx: sa.dstIdx, SrcIdx: ep.idx,
				MsgID: sa.msgID, Offset: off, Last: f == sa.frames-1,
			})
			off += chunk
			remaining -= chunk
		}
	}
	onComplete := sa.onComplete
	*sa = sendArg{}
	d.sends.Put(sa)
	if onComplete != nil {
		d.eng.At(last, onComplete)
	}
}

// Close releases the endpoint and its service resources.
func (ep *Endpoint) Close() {
	if ep.closed {
		return
	}
	d := ep.dev
	ep.closed = true
	delete(d.eps, ep.idx)
	if svc, ok := d.svcs[ep.svcID]; ok {
		svc.usedTXQs--
		svc.usedEQs--
		svc.refs--
	}
}
