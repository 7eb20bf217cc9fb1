package cxi

import (
	"fmt"
	"sort"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// DeviceConfig tunes the NIC model.
type DeviceConfig struct {
	// SendOverhead is per-message software+DMA-issue cost on the send side
	// (descriptor write, doorbell, DMA fetch).
	SendOverhead time.Duration
	// RecvOverhead is per-message delivery cost on the receive side (event
	// generation, completion write).
	RecvOverhead time.Duration
	// MsgIssueGap is the minimum spacing between successive message issues
	// from one endpoint; it bounds small-message rate.
	MsgIssueGap time.Duration
	// CoalesceFrames sends multi-frame messages as a single burst event
	// when true (default); turning it off models frame-granular simulation
	// and is used by the ablation benchmarks.
	CoalesceFrames bool
	// UsernsAware makes the driver translate caller credentials through
	// user namespaces before matching UID/GID members. The unpatched
	// driver is not userns-aware; the paper's patched stack is.
	UsernsAware bool
	// RunSigma is the per-instantiation systemic drift on the software
	// overheads, complementing fabric.Config.RunSigma (see there).
	RunSigma float64
}

// DefaultDeviceConfig returns parameters calibrated so that OSU-style
// microbenchmarks over the simulated fabric land in the regime the paper
// reports (~2 µs small-message latency, ~24 GB/s peak bandwidth per port).
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		SendOverhead:   650 * time.Nanosecond,
		RecvOverhead:   450 * time.Nanosecond,
		MsgIssueGap:    300 * time.Nanosecond,
		CoalesceFrames: true,
		UsernsAware:    true,
		RunSigma:       0.004,
	}
}

// DeviceStats aggregates NIC counters.
type DeviceStats struct {
	MsgsSent      uint64
	MsgsRecv      uint64
	BytesSent     uint64
	BytesRecv     uint64
	AuthSuccesses uint64
	AuthFailures  map[AuthFailure]uint64
	UnroutedPkts  uint64 // packets that matched no local endpoint
	RMAOps        uint64 // one-sided operations served
	RMAFaults     uint64 // one-sided operations rejected (key/bounds/perm)
}

// Device is one Cassini NIC plus the access-control state its kernel driver
// keeps. It implements fabric.Receiver. Like the fabric it attaches to, a
// Device is confined to its engine's goroutine and takes no lock (see the
// threading contract in internal/fabric's package documentation).
type Device struct {
	Name string

	eng     *sim.Engine
	kern    *nsmodel.Kernel
	sw      *fabric.Switch
	addr    fabric.Addr
	link    *fabric.HostLink
	cfg     DeviceConfig // fixed at NewDevice; read in place, never copied per message
	mtu     int          // sw.Config().MTU, read once: Config() copies the whole struct
	svcs    map[SvcID]*Svc
	byName  map[string]SvcID // the named services of svcs: SvcAlloc's duplicate check without a scan
	nextSvc SvcID
	eps     map[int]*Endpoint // by local endpoint index
	nextEP  int
	nextMsg uint64
	// vniRefs counts how many services reference each VNI, so the switch
	// grant is revoked only when the last service goes away.
	vniRefs map[fabric.VNI]int
	stats   DeviceStats
	// reassembly state, keyed by (src, msgID). curKey/curPM remember the
	// record ReceivePacket touched last (curPM nil when none): a message's
	// frames arrive back to back, so all but its first and last find their
	// record here instead of in the map.
	partial map[partialKey]*partialMsg
	curKey  partialKey
	curPM   *partialMsg
	// RMA state: registered memory regions and requester completions.
	nextMR     uint64
	mrs        map[MRKey]*MemoryRegion
	rmaWaiters map[uint64]func()

	// Free lists of the per-message records below. The data path runs on
	// the engine's goroutine (Send and ReceivePacket are event-loop calls),
	// so the lists are the device's own and need no lock.
	sends    sim.FreeList[sendArg]
	delivers sim.FreeList[msgDeliver]
	partials sim.FreeList[partialMsg]
}

type partialKey struct {
	src fabric.Addr
	id  uint64
}

type partialMsg struct {
	got   int
	total int // unknown until Last seen; 0 = unknown
	dst   int
	vni   fabric.VNI
}

// NewDevice creates a NIC attached to sw, authenticated against kern.
func NewDevice(name string, eng *sim.Engine, kern *nsmodel.Kernel, sw *fabric.Switch, cfg DeviceConfig) *Device {
	if cfg.RunSigma > 0 {
		f := eng.Rand().NormFloat64() * cfg.RunSigma
		if f > 3*cfg.RunSigma {
			f = 3 * cfg.RunSigma
		}
		if f < -3*cfg.RunSigma {
			f = -3 * cfg.RunSigma
		}
		cfg.SendOverhead = time.Duration(float64(cfg.SendOverhead) * (1 + f))
		cfg.RecvOverhead = time.Duration(float64(cfg.RecvOverhead) * (1 + f))
		cfg.MsgIssueGap = time.Duration(float64(cfg.MsgIssueGap) * (1 + f))
	}
	d := &Device{
		Name:       name,
		eng:        eng,
		kern:       kern,
		sw:         sw,
		cfg:        cfg,
		mtu:        sw.Config().MTU,
		svcs:       make(map[SvcID]*Svc),
		byName:     make(map[string]SvcID),
		nextSvc:    DefaultSvcID,
		eps:        make(map[int]*Endpoint),
		nextEP:     1,
		vniRefs:    make(map[fabric.VNI]int),
		partial:    make(map[partialKey]*partialMsg),
		mrs:        make(map[MRKey]*MemoryRegion),
		rmaWaiters: make(map[uint64]func()),
		stats:      DeviceStats{AuthFailures: make(map[AuthFailure]uint64)},
	}
	d.addr = sw.Attach(d)
	d.link = fabric.NewHostLink(eng, sw)
	// The driver ships with an unrestricted default service on VNI 1,
	// mirroring the out-of-the-box single-tenant configuration ("globally
	// accessible VNI" in the paper's vni:false baseline).
	def := &Svc{
		ID: DefaultSvcID,
		Desc: SvcDesc{
			Name:       "default",
			Restricted: false,
			VNIs:       []fabric.VNI{1},
			Limits:     DefaultLimits(),
		},
		Enabled: true,
	}
	d.svcs[DefaultSvcID] = def
	d.byName[def.Desc.Name] = DefaultSvcID
	d.nextSvc = DefaultSvcID + 1
	d.retainVNIs(def.Desc.VNIs)
	return d
}

// Addr returns the NIC's fabric address.
func (d *Device) Addr() fabric.Addr { return d.addr }

// Config returns the NIC model configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// Stats returns a copy of the NIC counters.
func (d *Device) Stats() DeviceStats {
	out := d.stats
	out.AuthFailures = make(map[AuthFailure]uint64, len(d.stats.AuthFailures))
	for k, v := range d.stats.AuthFailures {
		out.AuthFailures[k] = v
	}
	return out
}

func (d *Device) retainVNIs(vnis []fabric.VNI) {
	for _, v := range vnis {
		if d.vniRefs[v] == 0 {
			// Programming the switch is a fabric-manager operation; the
			// driver model performs it directly.
			if err := d.sw.GrantVNI(d.addr, v); err != nil {
				panic(fmt.Sprintf("cxi: grant vni: %v", err))
			}
		}
		d.vniRefs[v]++
	}
}

func (d *Device) releaseVNIs(vnis []fabric.VNI) {
	for _, v := range vnis {
		d.vniRefs[v]--
		if d.vniRefs[v] <= 0 {
			delete(d.vniRefs, v)
			if err := d.sw.RevokeVNI(d.addr, v); err != nil {
				panic(fmt.Sprintf("cxi: revoke vni: %v", err))
			}
		}
	}
}

// requireHostRoot implements the driver's privilege check for service
// management: the caller must be root in the initial user namespace
// (CAP_SYS_ADMIN equivalent).
func (d *Device) requireHostRoot(caller nsmodel.PID) error {
	st, err := d.kern.Proc().ReadStatus(caller)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPrivilege, err)
	}
	if !st.HostUser || st.UID != 0 {
		return fmt.Errorf("%w: pid %d uid %d", ErrPrivilege, caller, st.UID)
	}
	return nil
}

// SvcAlloc creates a service. Privileged.
func (d *Device) SvcAlloc(caller nsmodel.PID, desc SvcDesc) (SvcID, error) {
	if err := d.requireHostRoot(caller); err != nil {
		return 0, err
	}
	if _, dup := d.byName[desc.Name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateSvc, desc.Name)
	}
	if (desc.Limits == ResourceLimits{}) {
		desc.Limits = DefaultLimits()
	}
	id := d.nextSvc
	d.nextSvc++
	svc := &Svc{ID: id, Desc: desc, Enabled: true}
	d.svcs[id] = svc
	if desc.Name != "" { // unnamed services never collide, so are never filed
		d.byName[desc.Name] = id
	}
	d.retainVNIs(desc.VNIs)
	return id, nil
}

// SvcDestroy removes a service. It fails while endpoints created through the
// service are still open. Privileged.
func (d *Device) SvcDestroy(caller nsmodel.PID, id SvcID) error {
	if err := d.requireHostRoot(caller); err != nil {
		return err
	}
	svc, ok := d.svcs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchService, id)
	}
	if svc.refs > 0 {
		return fmt.Errorf("%w: svc %d has %d endpoints", ErrServiceBusy, id, svc.refs)
	}
	delete(d.svcs, id)
	delete(d.byName, svc.Desc.Name)
	d.releaseVNIs(svc.Desc.VNIs)
	return nil
}

// SvcSetEnabled enables or disables a service. Privileged.
func (d *Device) SvcSetEnabled(caller nsmodel.PID, id SvcID, enabled bool) error {
	if err := d.requireHostRoot(caller); err != nil {
		return err
	}
	svc, ok := d.svcs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchService, id)
	}
	svc.Enabled = enabled
	return nil
}

// SvcGet returns a copy of the service.
func (d *Device) SvcGet(id SvcID) (Svc, bool) {
	svc, ok := d.svcs[id]
	if !ok {
		return Svc{}, false
	}
	return *svc, true
}

// SvcList returns all services sorted by ID.
func (d *Device) SvcList() []Svc {
	out := make([]Svc, 0, len(d.svcs))
	for _, s := range d.svcs {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SvcFindByMember returns the IDs of services listing the given member,
// which the CNI plugin uses on DEL to find a container's services.
func (d *Device) SvcFindByMember(m Member) []SvcID {
	var out []SvcID
	for id, s := range d.svcs {
		for _, mm := range s.Desc.Members {
			if mm == m {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// authenticate matches the calling process against the service member list.
// This is the code path the paper extends: besides UID and GID members it
// accepts netns members, compared against the caller's netns inode obtained
// through procfs.
func (d *Device) authenticate(caller nsmodel.PID, svc *Svc) AuthFailure {
	if !svc.Desc.Restricted {
		return AuthOK
	}
	st, err := d.kern.Proc().ReadStatus(caller)
	if err != nil {
		return AuthNotMember
	}
	uid, gid := st.UID, st.GID
	if d.cfg.UsernsAware {
		uid, gid = st.HostUID, st.HostGID
	}
	for _, m := range svc.Desc.Members {
		switch m.Type {
		case MemberUID:
			if uint64(uid) == m.Value {
				return AuthOK
			}
		case MemberGID:
			if uint64(gid) == m.Value {
				return AuthOK
			}
		case MemberNetNS:
			if uint64(st.NetNS) == m.Value {
				return AuthOK
			}
		}
	}
	return AuthNotMember
}

// checkSvc validates an endpoint request against svc without consuming
// resources.
func (d *Device) checkSvc(caller nsmodel.PID, svc *Svc, vni fabric.VNI, tc fabric.TrafficClass) AuthFailure {
	if !svc.Enabled {
		return AuthDisabled
	}
	if fail := d.authenticate(caller, svc); fail != AuthOK {
		return fail
	}
	ok := false
	for _, v := range svc.Desc.VNIs {
		if v == vni {
			ok = true
			break
		}
	}
	if !ok {
		return AuthBadVNI
	}
	if len(svc.Desc.TCs) > 0 {
		ok = false
		for _, t := range svc.Desc.TCs {
			if t == tc {
				ok = true
				break
			}
		}
		if !ok {
			return AuthBadTC
		}
	}
	if svc.usedTXQs+1 > svc.Desc.Limits.MaxTXQs || svc.usedEQs+1 > svc.Desc.Limits.MaxEQs {
		return AuthLimits
	}
	return AuthOK
}

// msgDeliver is the recycled argument of a receive-overhead event: the
// reassembled message rides here instead of in a closure, so steady-state
// message delivery does not allocate. Reassembly records (partialMsg) are
// recycled the same way; only multi-frame messages in frame-granular mode
// (CoalesceFrames off) ever need one.
type msgDeliver struct {
	ep  *Endpoint
	msg Message
}

func msgDeliverCall(a any) {
	md := a.(*msgDeliver)
	ep, msg := md.ep, md.msg
	md.ep = nil
	ep.dev.delivers.Put(md)
	ep.deliver(msg)
}

// ReceivePacket implements fabric.Receiver: demultiplex by destination
// endpoint index, reassemble, and deliver after the receive overhead.
func (d *Device) ReceivePacket(p *fabric.Packet) {
	ep, ok := d.eps[p.DstIdx]
	if !ok || ep.closed || ep.vni != p.VNI {
		d.stats.UnroutedPkts++
		return
	}
	if p.RMA != nil {
		d.handleRMA(p, ep)
		return
	}
	size := p.PayloadBytes
	complete := p.Last
	key := partialKey{src: p.Src, id: p.MsgID}
	pm := d.curPM
	if pm == nil || key != d.curKey {
		// The common case — a coalesced or single-frame message, no
		// partial state — finds the reassembly map empty.
		pm = d.partial[key]
	}
	switch {
	case pm != nil && complete:
		size = pm.got + p.PayloadBytes
		delete(d.partial, key)
		*pm = partialMsg{}
		d.partials.Put(pm)
		d.curPM = nil
	case pm != nil:
		pm.got += p.PayloadBytes
		d.curKey, d.curPM = key, pm
	case !complete:
		pm = d.partials.Get()
		pm.got, pm.dst, pm.vni = p.PayloadBytes, p.DstIdx, p.VNI
		d.partial[key] = pm
		d.curKey, d.curPM = key, pm
	}

	if complete {
		d.stats.MsgsRecv++
		d.stats.BytesRecv += uint64(size)
		md := d.delivers.Get()
		md.ep = ep
		md.msg = Message{Src: p.Src, SrcEP: p.SrcIdx, Size: size, VNI: p.VNI, TC: p.TC}
		d.eng.AfterCall(d.eng.Jitter(d.cfg.RecvOverhead, 0.02), msgDeliverCall, md)
	}
}
