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
package cni

import (
	"errors"
	"fmt"
	"time"

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

// Result is the accumulating chained-plugin result. The chain hands every
// plugin the same Result in turn, which each extends in place.
type Result struct {
	Interfaces []Interface
	CXI        *CXIAttachment
}

// Plugin is one CNI plugin. Execution is asynchronous in virtual time,
// standing in for the runtime exec()ing the plugin binary.
type Plugin interface {
	Name() string
	// Add attaches networking for the container, extending prev (the
	// result the plugins before it built, empty for the first) in place.
	Add(args Args, prev *Result, done func(*Result, error))
	// Del removes the plugin's attachment. DEL must be idempotent and
	// tolerant of partial state, per the CNI spec.
	Del(args Args, done func(error))
	// Check verifies the attachment is still in place.
	Check(args Args, done func(error))
}

// Chain executes a plugin list according to chained-plugin semantics: ADD
// runs plugins in order, each receiving the previous result; DEL runs in
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

// Add runs the ADD chain. On a plugin error it stops there and reports nil;
// the runtime then cleans up with DEL, as the spec requires.
func (c *Chain) Add(args Args, done func(*Result, error)) {
	op := c.op(CmdAdd, args, 0)
	op.res, op.addDone = &Result{}, done
	op.next()
}

// Del runs the DEL chain in reverse order, visiting every plugin even after
// errors, and returns the first error.
func (c *Chain) Del(args Args, done func(error)) {
	op := c.op(CmdDel, args, len(c.plugins)-1)
	op.done = done
	op.next()
}

// Check runs CHECK through the chain in order, stopping at the first error.
func (c *Chain) Check(args Args, done func(error)) {
	op := c.op(CmdCheck, args, 0)
	op.done = done
	op.next()
}

// chainOp is one ADD, DEL or CHECK walking the plugin list: the plugin it
// is at, the result ADD accumulates, DEL's first error, the caller's
// callback, and the two callbacks a plugin takes — method values made once
// per record, which finish recycles: a chain invocation allocates nothing
// beyond the Result ADD returns.
type chainOp struct {
	c       *Chain
	cmd     Command
	i       int
	args    Args
	res     *Result
	err     error
	addDone func(*Result, error)
	done    func(error)
	added   func(*Result, error)
	visited func(error)
}

func (c *Chain) op(cmd Command, args Args, i int) *chainOp {
	op := c.ops.Get()
	if op.c == nil {
		op.c, op.added, op.visited = c, op.onAdded, op.onVisited
	}
	op.cmd, op.args, op.i = cmd, args, i
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
		p.Add(op.args, op.res, op.added)
	case CmdDel:
		p.Del(op.args, op.visited)
	default:
		p.Check(op.args, op.visited)
	}
}

// pluginErr names the plugin at i and the verb it failed.
func (op *chainOp) pluginErr(err error) error {
	return fmt.Errorf("%w: %s %s: %v", ErrPluginFailed, op.c.plugins[op.i].Name(), op.cmd, err)
}

func (op *chainOp) onAdded(res *Result, err error) {
	if err != nil {
		op.finish(op.pluginErr(err))
		return
	}
	op.res = res
	op.i++
	op.next()
}

func (op *chainOp) onVisited(err error) {
	if op.cmd == CmdCheck {
		if err != nil {
			op.finish(op.pluginErr(err))
			return
		}
		op.i++
	} else {
		if err != nil && op.err == nil {
			op.err = op.pluginErr(err)
		}
		op.i--
	}
	op.next()
}

// finish recycles the record, then reports err and, to ADD, its result (nil
// on error).
func (op *chainOp) finish(err error) {
	res, addDone, done := op.res, op.addDone, op.done
	if err != nil {
		res = nil
	}
	op.args, op.res, op.err, op.addDone, op.done = Args{}, nil, nil, nil, nil
	op.c.ops.Put(op)
	if addDone != nil {
		addDone(res, err)
	} else {
		done(err)
	}
}
