// Package container is the simulated container runtime (the containerd/CRI
// layer): it creates the pod sandbox — a fresh network namespace plus an
// identity-shifted user namespace — invokes the CNI plugin chain with elevated
// permissions during container creation, and tears everything down on pod
// deletion, exactly the lifecycle hooks the paper's CXI CNI plugin relies
// on (§II-D, §III-B).
package container

import (
	"fmt"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cni"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// The runtime's calibrated costs.
const (
	// sandboxSetup is the cost of creating the sandbox (pause container,
	// namespaces, cgroups).
	sandboxSetup = 180 * time.Millisecond
	// sandboxTeardown is the cost of destroying it.
	sandboxTeardown = 90 * time.Millisecond
	// jitter is the fraction both costs vary by.
	jitter = 0.35
)

// Sandbox is one pod's runtime state.
type Sandbox struct {
	PodNamespace string
	PodName      string
	ContainerID  string
	NetNS        nsmodel.Inode
	UserNS       nsmodel.Inode
	Result       *cni.Result
	// procs are the container processes, killed at teardown.
	procs []nsmodel.PID
}

// Runtime implements k8s.Runtime for one node.
type Runtime struct {
	eng   *sim.Engine
	kern  *nsmodel.Kernel
	chain *cni.Chain
	node  string

	sandboxes map[string]*Sandbox // by pod key
	nextCID   int
	nextShift nsmodel.UID
	steps     sim.FreeList[podStep]
}

// NewRuntime creates the runtime for node, wiring the CNI chain.
func NewRuntime(eng *sim.Engine, kern *nsmodel.Kernel, chain *cni.Chain, node string) *Runtime {
	return &Runtime{
		eng: eng, kern: kern, chain: chain, node: node,
		sandboxes: make(map[string]*Sandbox),
		nextShift: 100000,
	}
}

// Node returns the node this runtime serves.
func (r *Runtime) Node() string { return r.node }

// SandboxFor returns the live sandbox for a pod, if any. Workload drivers
// use it to place application processes inside the pod's namespaces.
func (r *Runtime) SandboxFor(podNamespace, podName string) (*Sandbox, bool) {
	sb, ok := r.sandboxes[podNamespace+"/"+podName]
	return sb, ok
}

// Sandboxes returns the number of live sandboxes.
func (r *Runtime) Sandboxes() int { return len(r.sandboxes) }

// SetupPod implements k8s.Runtime: create namespaces, then run the CNI ADD
// chain. On chain failure the partial attachment is cleaned up with DEL and
// the error is surfaced (failing the pod launch).
func (r *Runtime) SetupPod(pod *k8s.Pod, done k8s.PodDone) {
	key := pod.Meta.Key()
	if _, exists := r.sandboxes[key]; exists {
		done.SetupDone(fmt.Errorf("container: sandbox for %s already exists", key))
		return
	}
	st := r.step(pod, done)
	st.key = key
	r.eng.AfterCall(r.eng.Jitter(sandboxSetup, jitter), createSandbox, st)
}

// TeardownPod implements k8s.Runtime: kill container processes, run the CNI
// DEL chain, destroy namespaces.
func (r *Runtime) TeardownPod(pod *k8s.Pod, done k8s.PodDone) {
	key := pod.Meta.Key()
	sb, ok := r.sandboxes[key]
	if !ok {
		done.TornDown()
		return
	}
	delete(r.sandboxes, key)
	for _, pid := range sb.procs {
		_ = r.kern.Exit(pid)
	}
	st := r.step(pod, done)
	st.sb, st.teardown = sb, true
	r.eng.AfterCall(r.eng.Jitter(sandboxTeardown, jitter), destroySandbox, st)
}

// podStep is one SetupPod or TeardownPod in flight: the pod, its sandbox,
// the kubelet's continuation and which of its calls ends the step, the ADD
// error a cleanup DEL reports, and the two callbacks the CNI chain takes —
// method values made once per record, which finish recycles.
type podStep struct {
	r        *Runtime
	pod      *k8s.Pod
	key      string
	sb       *Sandbox
	err      error
	done     k8s.PodDone
	teardown bool
	added    func(*cni.Result, error)
	deleted  func(error)
}

func (r *Runtime) step(pod *k8s.Pod, done k8s.PodDone) *podStep {
	st := r.steps.Get()
	if st.r == nil {
		st.r, st.added, st.deleted = r, st.onAdded, st.onDeleted
	}
	st.pod, st.done = pod, done
	return st
}

func createSandbox(a any) {
	st := a.(*podStep)
	r, pod := st.r, st.pod
	r.nextCID++
	cid := containerID(r.node, r.nextCID)
	sb := &Sandbox{
		PodNamespace: pod.Meta.Namespace,
		PodName:      pod.Meta.Name,
		ContainerID:  cid,
	}
	st.sb = sb
	if pod.Spec.HostNetwork {
		// Host-network pods share the host's namespaces and skip CNI
		// entirely.
		sb.NetNS, sb.UserNS = r.kern.HostNetNS(), r.kern.HostUserNS()
		r.sandboxes[st.key] = sb
		st.finish(nil)
		return
	}
	sb.NetNS = r.kern.NewNetNS(cid).Inode
	// Every other pod runs in its own user namespace with an
	// identity-shifted mapping, as hardened multi-tenant clusters do.
	shift := r.nextShift
	r.nextShift += 65536
	sb.UserNS = r.kern.NewUserNS(cid, nsmodel.MapOne[nsmodel.UID](0, shift),
		nsmodel.MapOne(0, nsmodel.GID(shift))).Inode
	r.chain.Add(sb.cniArgs(), st.added)
}

// cniArgs is what the runtime hands the CNI chain for the sandbox.
func (sb *Sandbox) cniArgs() cni.Args {
	return cni.Args{
		ContainerID:  sb.ContainerID,
		NetNS:        sb.NetNS,
		PodNamespace: sb.PodNamespace,
		PodName:      sb.PodName,
	}
}

// containerID is "<node>-c<seq>", seq zero-padded to six digits.
func containerID(node string, seq int) string {
	var buf, digits [64]byte
	id := append(append(buf[:0], node...), "-c"...)
	d := strconv.AppendInt(digits[:0], int64(seq), 10)
	for i := len(d); i < 6; i++ {
		id = append(id, '0')
	}
	return string(append(id, d...))
}

func (st *podStep) onAdded(res *cni.Result, err error) {
	if err != nil {
		// CNI spec: clean up partial attachments with DEL.
		st.err = err
		st.r.chain.Del(st.sb.cniArgs(), st.deleted)
		return
	}
	st.sb.Result = res
	st.r.sandboxes[st.key] = st.sb
	st.finish(nil)
}

func destroySandbox(a any) {
	st := a.(*podStep)
	if st.pod.Spec.HostNetwork {
		st.finish(nil)
		return
	}
	st.r.chain.Del(st.sb.cniArgs(), st.deleted)
}

// onDeleted ends a teardown's DEL, or the cleanup DEL of a failed setup.
func (st *podStep) onDeleted(error) {
	st.r.destroyNamespaces(st.sb)
	st.finish(st.err)
}

// finish recycles the record, then runs the kubelet's continuation.
func (st *podStep) finish(err error) {
	r, done, teardown := st.r, st.done, st.teardown
	*st = podStep{r: r, added: st.added, deleted: st.deleted}
	r.steps.Put(st)
	if teardown {
		done.TornDown()
	} else {
		done.SetupDone(err)
	}
}

func (r *Runtime) destroyNamespaces(sb *Sandbox) {
	if sb.NetNS != r.kern.HostNetNS() {
		_ = r.kern.DeleteNetNS(sb.NetNS)
	}
}

// Exec spawns a process inside the pod's namespaces (the application
// container's entrypoint or an exec session). The returned process carries
// the pod's netns, which is what CXI service authentication keys on.
func (r *Runtime) Exec(podNamespace, podName, procName string, uid nsmodel.UID, gid nsmodel.GID) (*nsmodel.Process, error) {
	sb, ok := r.sandboxes[podNamespace+"/"+podName]
	if !ok {
		return nil, fmt.Errorf("container: %w: %s/%s", cni.ErrNoSandbox, podNamespace, podName)
	}
	p, err := r.kern.Spawn(procName, uid, gid, sb.NetNS, sb.UserNS)
	if err != nil {
		return nil, err
	}
	sb.procs = append(sb.procs, p.PID)
	return p, nil
}
