package cxi

import (
	"errors"
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/fabric"
)

// RMA errors.
var (
	ErrNoSuchMR     = errors.New("cxi: no such memory region")
	ErrMRBounds     = errors.New("cxi: access outside memory region")
	ErrMRPermission = errors.New("cxi: memory region permission denied")
)

// MRKey is the remote key naming a registered memory region, exchanged out
// of band exactly like an RDMA rkey.
type MRKey uint64

// MRAccess are memory-region permission bits.
type MRAccess uint8

// Access bits.
const (
	MRRemoteRead MRAccess = 1 << iota
	MRRemoteWrite
)

// MemoryRegion is a registered buffer exposed for remote access. The model
// tracks size and permissions, not contents: one-sided operations move
// byte counts, which is what the performance and isolation behaviour
// depends on.
type MemoryRegion struct {
	Key    MRKey
	Size   int
	Access MRAccess
	ep     *Endpoint
}

// RegisterMR exposes size bytes through the endpoint with the given
// permissions. Registration is a local, unauthenticated operation (the
// endpoint was already authenticated at allocation); the returned key is
// valid only on this endpoint's VNI.
func (ep *Endpoint) RegisterMR(size int, access MRAccess) (*MemoryRegion, error) {
	if ep.closed {
		return nil, ErrEndpointClosed
	}
	d := ep.dev
	d.nextMR++
	mr := &MemoryRegion{Key: MRKey(d.nextMR), Size: size, Access: access, ep: ep}
	d.mrs[mr.Key] = mr
	return mr, nil
}

// DeregisterMR revokes the region.
func (ep *Endpoint) DeregisterMR(mr *MemoryRegion) {
	d := ep.dev
	delete(d.mrs, mr.Key)
}

// rmaOp describes a one-sided operation carried in a packet's metadata.
type rmaOp struct {
	write  bool
	key    MRKey
	offset int
	length int
	// reply, for reads: the requester's endpoint index awaiting data.
	replyEP int
}

// Write performs an RDMA write: size bytes pushed into the remote region
// (dstKey, dstOffset) on NIC dst. onComplete fires at *remote* completion
// acknowledgement (one network round trip after the data lands), matching
// fi_write + completion semantics. Invalid key/bounds/permissions cause the
// remote NIC to drop the operation and no completion ever fires (the NIC
// would raise an error event; callers in this repository use timeouts).
func (ep *Endpoint) Write(dst fabric.Addr, dstIdx int, dstKey MRKey, dstOffset, size int, onComplete func()) error {
	if ep.closed {
		return ErrEndpointClosed
	}
	return ep.sendRMA(dst, dstIdx, size, rmaOp{write: true, key: dstKey, offset: dstOffset, length: size, replyEP: ep.idx}, onComplete)
}

// Read performs an RDMA read: size bytes pulled from the remote region.
// onData fires when the data has fully arrived locally.
func (ep *Endpoint) Read(dst fabric.Addr, dstIdx int, srcKey MRKey, srcOffset, size int, onData func()) error {
	if ep.closed {
		return ErrEndpointClosed
	}
	// The request itself is a small control message; the data flows back.
	return ep.sendRMA(dst, dstIdx, 32, rmaOp{write: false, key: srcKey, offset: srcOffset, length: size, replyEP: ep.idx}, onData)
}

// sendRMA transmits an RMA operation as a tagged packet stream.
func (ep *Endpoint) sendRMA(dst fabric.Addr, dstIdx int, wireBytes int, op rmaOp, onComplete func()) error {
	d := ep.dev
	d.nextMsg++
	msgID := d.nextMsg
	if onComplete != nil {
		d.rmaWaiters[msgID] = onComplete
	}

	now := d.eng.Now()
	issue := now
	if ep.issueAt > issue {
		issue = ep.issueAt
	}
	issue = issue.Add(d.eng.Jitter(d.cfg.MsgIssueGap, 0.02))
	ep.issueAt = issue
	start := issue.Add(d.eng.Jitter(d.cfg.SendOverhead, 0.02))

	frames := (wireBytes + d.mtu - 1) / d.mtu
	if frames == 0 {
		frames = 1
	}
	opCopy := op
	d.eng.At(start, func() {
		d.link.Send(&fabric.Packet{
			Src: d.addr, Dst: dst, VNI: ep.vni, TC: ep.tc,
			PayloadBytes: wireBytes, Frames: frames, DstIdx: dstIdx, SrcIdx: ep.idx,
			MsgID: msgID, Last: true,
			RMA: &fabric.RMAHeader{
				Write: opCopy.write, Key: uint64(opCopy.key),
				Offset: opCopy.offset, Length: opCopy.length, ReplyEP: opCopy.replyEP,
			},
		})
	})
	return nil
}

// handleRMA processes an arriving one-sided operation on the target NIC.
func (d *Device) handleRMA(p *fabric.Packet, ep *Endpoint) {
	h := p.RMA
	if h.Ack {
		// Completion/data arriving back at the requester.
		waiter, ok := d.rmaWaiters[h.ReqID]
		if !ok {
			return
		}
		delete(d.rmaWaiters, h.ReqID)
		d.eng.After(d.eng.Jitter(d.cfg.RecvOverhead, 0.02), waiter)
		return
	}
	mr, ok := d.mrs[MRKey(h.Key)]
	if !ok || mr.ep.closed || mr.ep.vni != p.VNI {
		d.stats.RMAFaults++
		return
	}
	if h.Offset < 0 || h.Length < 0 || h.Offset+h.Length > mr.Size {
		d.stats.RMAFaults++
		return
	}
	var need MRAccess
	if h.Write {
		need = MRRemoteWrite
	} else {
		need = MRRemoteRead
	}
	if mr.Access&need == 0 {
		d.stats.RMAFaults++
		return
	}
	d.stats.RMAOps++

	// Send the acknowledgement (write) or data return (read). p is only
	// valid for the duration of the call, so the event captures copies.
	src, reqID, replyEP := p.Src, p.MsgID, h.ReplyEP
	size := 16 // ack
	if !h.Write {
		size = h.Length // data flows back
	}
	tc := p.TC
	vni := p.VNI
	frames := (size + d.mtu - 1) / d.mtu
	if frames == 0 {
		frames = 1
	}
	d.eng.After(d.eng.Jitter(d.cfg.RecvOverhead, 0.02), func() {
		d.link.Send(&fabric.Packet{
			Src: d.addr, Dst: src, VNI: vni, TC: tc,
			PayloadBytes: size, Frames: frames, DstIdx: replyEP, SrcIdx: ep.idx,
			MsgID: reqID, Last: true,
			RMA: &fabric.RMAHeader{Ack: true, ReqID: reqID},
		})
	})
}

// String renders the key for diagnostics.
func (k MRKey) String() string { return fmt.Sprintf("rkey-%d", uint64(k)) }
