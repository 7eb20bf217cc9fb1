package cni

import (
	"fmt"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// OverlayPlugin is the cluster's primary CNI plugin: a flannel-style
// bridge/veth overlay with a per-node /24 from the cluster CIDR. It models
// the veth creation, bridge attachment and IPAM work with a latency, and
// keeps real allocation state so DEL/CHECK have something to verify.
type OverlayPlugin struct {
	eng  *sim.Engine
	node string
	// Subnet is the node's pod subnet prefix, e.g. "10.42.0".
	Subnet string
	// SetupCost models veth/bridge/iptables configuration.
	SetupCost sim.Duration

	nextIP int
	// attachments maps container ID to its interface.
	attachments map[string]Interface
	steps       sim.FreeList[overlayStep]
}

// NewOverlayPlugin creates the overlay plugin for one node.
func NewOverlayPlugin(eng *sim.Engine, node, subnet string) *OverlayPlugin {
	return &OverlayPlugin{
		eng: eng, node: node, Subnet: subnet,
		SetupCost:   35 * time.Millisecond,
		nextIP:      1,
		attachments: make(map[string]Interface),
	}
}

// Name implements Plugin.
func (o *OverlayPlugin) Name() string { return "overlay" }

// overlayStep carries one verb's arguments across its setup latency. Each
// verb's event copies out what it needs and recycles the record before it
// acts.
type overlayStep struct {
	o     *OverlayPlugin
	args  Args
	prev  *Result
	added func(*Result, error)
	done  func(error)
}

func (o *OverlayPlugin) after(d sim.Duration, fn func(any), args Args) *overlayStep {
	st := o.steps.Get()
	st.o, st.args = o, args
	o.eng.AfterCall(o.eng.Jitter(d, 0.3), fn, st)
	return st
}

// recycle clears the record and hands it back.
func (st *overlayStep) recycle() {
	o := st.o
	*st = overlayStep{}
	o.steps.Put(st)
}

// Add creates the veth pair and assigns the pod IP.
func (o *OverlayPlugin) Add(args Args, prev *Result, done func(*Result, error)) {
	st := o.after(o.SetupCost, overlayAdd, args)
	st.prev, st.added = prev, done
}

func overlayAdd(a any) {
	st := a.(*overlayStep)
	o, args, prev, done := st.o, st.args, st.prev, st.added
	st.recycle()
	if args.NetNS == nsmodel.InvalidInode {
		done(nil, fmt.Errorf("no netns for container %s", args.ContainerID))
		return
	}
	if _, dup := o.attachments[args.ContainerID]; dup {
		done(nil, fmt.Errorf("container %s already attached", args.ContainerID))
		return
	}
	o.nextIP++
	var buf [32]byte
	ip := append(append(buf[:0], o.Subnet...), '.')
	ip = append(strconv.AppendInt(ip, int64(o.nextIP), 10), "/24"...)
	iface := Interface{Name: "eth0", Sandbox: args.NetNS, IP: string(ip)}
	o.attachments[args.ContainerID] = iface
	prev.AddInterface(iface)
	done(prev, nil)
}

// Del removes the attachment. Idempotent per the CNI spec.
func (o *OverlayPlugin) Del(args Args, done func(error)) {
	o.after(o.SetupCost/2, overlayDel, args).done = done
}

func overlayDel(a any) {
	st := a.(*overlayStep)
	o, args, done := st.o, st.args, st.done
	st.recycle()
	delete(o.attachments, args.ContainerID)
	done(nil)
}

// Check verifies the attachment exists.
func (o *OverlayPlugin) Check(args Args, done func(error)) {
	o.after(o.SetupCost/4, overlayCheck, args).done = done
}

func overlayCheck(a any) {
	st := a.(*overlayStep)
	o, args, done := st.o, st.args, st.done
	st.recycle()
	if _, ok := o.attachments[args.ContainerID]; !ok {
		done(fmt.Errorf("container %s not attached", args.ContainerID))
		return
	}
	done(nil)
}

// Attachments returns the number of live attachments (for tests).
func (o *OverlayPlugin) Attachments() int { return len(o.attachments) }
