// Package cni models the Container Network Interface machinery: plugin
// configuration, the ADD/DEL/CHECK verbs, and chained plugin execution as
// specified by the CNI spec and implemented by container runtimes.
//
// Two plugins are provided: a flannel-style overlay plugin (veth pair +
// node-local bridge + cluster subnet IPAM) standing in for the cluster's
// primary CNI, and the paper's CXI CNI plugin (see cxiplugin.go), which is
// deployed *chained* after the primary plugin so it can decorate the
// container's network namespace with Slingshot access without interfering
// with regular pod networking (paper §III-B).
//
// Every verb reports its error, and only that, to a k8s.Wrote, which a
// recycled record implements: the runtime's pod step hears the chain, and
// the chain's record hears each plugin. ADD's result is not reported: the
// caller owns it — the container runtime keeps it in the pod's Sandbox —
// and every plugin extends it in place.
package cni

import (
	"errors"
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Errors.
var (
	ErrPluginFailed = errors.New("cni: plugin failed")
	ErrNoSandbox    = errors.New("cni: no sandbox for container")
)

// Command is a CNI verb.
type Command string

// CNI verbs.
const (
	CmdAdd   Command = "ADD"
	CmdDel   Command = "DEL"
	CmdCheck Command = "CHECK"
)

// Args is the runtime-provided invocation context (CNI_ARGS plus the pod
// metadata Kubernetes runtimes pass through capability args).
type Args struct {
	ContainerID string
	// NetNS is the container's network namespace inode — the CNI spec
	// passes a netns path; the inode is what the path resolves to.
	NetNS nsmodel.Inode
	// PodNamespace and PodName identify the pod for plugins that query
	// the management plane (as the CXI plugin does for annotations).
	PodNamespace string
	PodName      string
}

// Interface describes one network interface a plugin created.
type Interface struct {
	Name    string
	Sandbox nsmodel.Inode // netns the interface lives in
	IP      string
}

// CXIAttachment records what the CXI plugin configured, carried in the
// chained Result for downstream plugins and the runtime.
type CXIAttachment struct {
	Device string
	SvcID  int
	VNI    uint32
}

// Result is the accumulating chained-plugin result. Its caller owns it —
// the container runtime keeps it in the pod's Sandbox — and Chain.Add hands
// it to every plugin in turn, which each extends in place. Its first
// interface and its CXI attachment live inside it (AddInterface,
// AttachCXI), so a pod's result needs no allocation of its own: pass it by
// pointer, since a copy would share that storage.
type Result struct {
	Interfaces []Interface
	CXI        *CXIAttachment
	iface      [1]Interface
	cxi        CXIAttachment
}

// AddInterface appends iface to Interfaces.
func (r *Result) AddInterface(iface Interface) {
	if r.Interfaces == nil {
		r.Interfaces = r.iface[:0]
	}
	r.Interfaces = append(r.Interfaces, iface)
}

// AttachCXI sets CXI to a.
func (r *Result) AttachCXI(a CXIAttachment) {
	r.cxi = a
	r.CXI = &r.cxi
}

// Plugin is one CNI plugin. Execution is asynchronous in virtual time,
// standing in for the runtime exec()ing the plugin binary. Each verb
// reports its error, and only that, to done exactly once.
type Plugin interface {
	Name() string
	// Add attaches networking for the container, extending res (the
	// result the plugins before it built, empty for the first) in place.
	Add(args Args, res *Result, done k8s.Wrote)
	// Del removes the plugin's attachment. DEL must be idempotent and
	// tolerant of partial state, per the CNI spec.
	Del(args Args, done k8s.Wrote)
	// Check verifies the attachment is still in place.
	Check(args Args, done k8s.Wrote)
}

// Chain executes a plugin list according to chained-plugin semantics: ADD
// runs plugins in order, each extending the caller's result; DEL runs in
// reverse order and aggregates errors but always visits every plugin.
type Chain struct {
	eng     *sim.Engine
	plugins []Plugin
	ops     sim.FreeList[chainOp]
}

// execOverhead is the per-plugin process execution cost (fork/exec of the
// plugin binary plus JSON marshalling).
const execOverhead = 6 * time.Millisecond

// NewChain builds a chain over the given plugins.
func NewChain(eng *sim.Engine, plugins ...Plugin) *Chain {
	return &Chain{eng: eng, plugins: plugins}
}

// Add runs the ADD chain, each plugin extending res in place. On a plugin
// error it stops there, leaving res partial; the runtime then cleans up
// with DEL, as the spec requires.
func (c *Chain) Add(args Args, res *Result, done k8s.Wrote) {
	op := c.op(CmdAdd, args, 0, done)
	op.res = res
	op.next()
}

// Del runs the DEL chain in reverse order, visiting every plugin even after
// errors, and reports the first error.
func (c *Chain) Del(args Args, done k8s.Wrote) {
	c.op(CmdDel, args, len(c.plugins)-1, done).next()
}

// Check runs CHECK through the chain in order, stopping at the first error.
func (c *Chain) Check(args Args, done k8s.Wrote) {
	c.op(CmdCheck, args, 0, done).next()
}

// chainOp is one ADD, DEL or CHECK walking the plugin list: the plugin it
// is at, the caller's result ADD extends, DEL's first error and the
// caller's Wrote. It is the Wrote every plugin reports to, so a chain
// invocation allocates nothing.
type chainOp struct {
	c    *Chain
	cmd  Command
	i    int
	args Args
	res  *Result
	err  error
	done k8s.Wrote
}

func (c *Chain) op(cmd Command, args Args, i int, done k8s.Wrote) *chainOp {
	op := c.ops.Get()
	op.c, op.cmd, op.args, op.i, op.done = c, cmd, args, i, done
	return op
}

// next execs the plugin at i after the exec overhead, or finishes when the
// walk has left the list.
func (op *chainOp) next() {
	if op.i < 0 || op.i >= len(op.c.plugins) {
		op.finish(op.err)
		return
	}
	op.c.eng.AfterCall(op.c.eng.Jitter(execOverhead, 0.3), execPlugin, op)
}

func execPlugin(a any) {
	op := a.(*chainOp)
	p := op.c.plugins[op.i]
	switch op.cmd {
	case CmdAdd:
		p.Add(op.args, op.res, op)
	case CmdDel:
		p.Del(op.args, op)
	default:
		p.Check(op.args, op)
	}
}

// pluginErr names the plugin at i and the verb it failed.
func (op *chainOp) pluginErr(err error) error {
	return fmt.Errorf("%w: %s %s: %v", ErrPluginFailed, op.c.plugins[op.i].Name(), op.cmd, err)
}

// Wrote hears the plugin at i. ADD and CHECK advance, or stop at the first
// error; DEL keeps the first error and walks back.
func (op *chainOp) Wrote(err error) {
	switch {
	case op.cmd == CmdDel:
		if err != nil && op.err == nil {
			op.err = op.pluginErr(err)
		}
		op.i--
	case err != nil:
		op.finish(op.pluginErr(err))
		return
	default:
		op.i++
	}
	op.next()
}

// finish recycles the record, then reports err.
func (op *chainOp) finish(err error) {
	c, done := op.c, op.done
	*op = chainOp{}
	c.ops.Put(op)
	done.Wrote(err)
}
