package cni

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// The CXI CNI plugin's calibrated costs.
const (
	// apiQueryCost models the plugin's query to the Kubernetes management
	// plane for pod annotations and the VNI CRD instance.
	apiQueryCost = 8 * time.Millisecond
	// svcOpCost models the ioctl round trip creating or destroying a CXI
	// service in the driver.
	svcOpCost = 3 * time.Millisecond
	// vniFetchRetries and vniFetchBackoff govern waiting for the VNI CRD
	// instance to appear (it is created by the VNI controller; the pod
	// creation gate makes this race rare but not impossible).
	vniFetchRetries = 10
	vniFetchBackoff = 150 * time.Millisecond
)

// CXIPluginStats counts plugin activity for the overhead analysis.
type CXIPluginStats struct {
	AddsTotal      uint64
	AddsPassthru   uint64 // pods without the vni annotation
	AddsConfigured uint64 // CXI services created
	AddsFailed     uint64
	DelsTotal      uint64
	SvcsDestroyed  uint64
}

// CXIPlugin is the paper's contribution (B): a chained CNI plugin that
// manages the lifetime of CXI services for containers. On ADD it (1)
// extracts the container's netns inode, (2) fetches the VNI assigned to the
// pod's job from the VNI CRD instance, and (3) creates a CXI service
// binding that netns to that VNI. On DEL it destroys the container's CXI
// services. Pods without the vni annotation pass through untouched.
type CXIPlugin struct {
	eng  *sim.Engine
	cli  *k8s.Client
	vnis k8s.Lister // VNI CRD instances, indexed by job
	dev  *cxi.Device
	root nsmodel.PID // plugin runs with elevated permissions

	// services tracks created CXI services by container ID so DEL can
	// clean up even if the netns is already gone.
	services map[string]cxi.SvcID
	stats    CXIPluginStats
	steps    sim.FreeList[cxiStep]
}

// NewCXIPlugin creates the plugin for one node's CXI device. root must be a
// host-root process (the runtime invokes CNI plugins with elevated
// permissions).
func NewCXIPlugin(eng *sim.Engine, cli *k8s.Client, dev *cxi.Device, root nsmodel.PID) *CXIPlugin {
	return &CXIPlugin{
		eng: eng, cli: cli, vnis: vniapi.VNILister(cli), dev: dev, root: root,
		services: make(map[string]cxi.SvcID),
	}
}

// Name implements Plugin.
func (p *CXIPlugin) Name() string { return "cxi" }

// Stats returns a copy of the plugin counters.
func (p *CXIPlugin) Stats() CXIPluginStats { return p.stats }

// cxiStep is one ADD, DEL or CHECK in flight through the plugin's steps —
// pod query, VNI fetch and its retries, service creation — carrying what
// the next step needs. The step that completes the verb recycles it.
type cxiStep struct {
	p       *CXIPlugin
	args    Args
	prev    *Result
	added   func(*Result, error)
	done    func(error)
	job     string
	retries int
	vni     fabric.VNI
}

func (p *CXIPlugin) after(d sim.Duration, fn func(any), args Args) *cxiStep {
	st := p.steps.Get()
	st.p, st.args = p, args
	p.eng.AfterCall(p.eng.Jitter(d, 0.3), fn, st)
	return st
}

// recycle clears the record and hands it back.
func (st *cxiStep) recycle() {
	p := st.p
	*st = cxiStep{}
	p.steps.Put(st)
}

// finishAdd recycles st and completes its ADD, counting a failure.
func (st *cxiStep) finishAdd(res *Result, err error) {
	p, done := st.p, st.added
	if err != nil {
		p.stats.AddsFailed++
		res = nil
	}
	st.recycle()
	done(res, err)
}

// Add implements the ADD verb.
func (p *CXIPlugin) Add(args Args, prev *Result, done func(*Result, error)) {
	p.stats.AddsTotal++
	// Query the management plane for the pod's annotations.
	st := p.after(apiQueryCost, cxiQuery, args)
	st.prev, st.added = prev, done
}

func cxiQuery(a any) {
	st := a.(*cxiStep)
	p, args := st.p, st.args
	obj, ok := p.cli.Get(k8s.KindPod, args.PodNamespace, args.PodName)
	if !ok {
		st.finishAdd(nil, fmt.Errorf("pod %s/%s not found", args.PodNamespace, args.PodName))
		return
	}
	pod := obj.(*k8s.Pod)
	requested, _ := vniapi.Requested(pod.Meta.Annotations)
	if !requested {
		// Not a Slingshot pod: do nothing, do not interfere.
		p.stats.AddsPassthru++
		st.finishAdd(st.prev, nil)
		return
	}
	if pod.Spec.TerminationGracePeriod > vniapi.MaxGracePeriod {
		st.finishAdd(nil, fmt.Errorf("termination grace period %v exceeds enforced maximum %v",
			time.Duration(pod.Spec.TerminationGracePeriod), time.Duration(vniapi.MaxGracePeriod)))
		return
	}
	if args.NetNS == nsmodel.InvalidInode {
		st.finishAdd(nil, fmt.Errorf("container %s has no netns", args.ContainerID))
		return
	}
	st.job, st.retries = pod.Meta.Labels["job-name"], vniFetchRetries
	st.fetchVNI()
}

// fetchVNI looks up the VNI CRD instance attached to the pod's job through
// the by-job index: O(1) per ADD instead of the seed's copy-scan over every
// VNI CRD in the namespace.
func (st *cxiStep) fetchVNI() {
	st.p.eng.AfterCall(st.p.eng.Jitter(apiQueryCost, 0.3), cxiFetch, st)
}

func cxiFetch(a any) {
	st := a.(*cxiStep)
	p := st.p
	vni, err := vniapi.JobVNI(p.vnis, st.args.PodNamespace, st.job)
	switch {
	case err == vniapi.ErrNoInstance && st.retries > 0:
		st.retries--
		p.eng.AfterCall(p.eng.Jitter(vniFetchBackoff, 0.3), cxiRefetch, st)
	case err == vniapi.ErrNoInstance:
		// No VNI could be fetched: the container fails to launch
		// (paper §III-B).
		st.finishAdd(nil, fmt.Errorf("no VNI CRD instance for job %q in namespace %q", st.job, st.args.PodNamespace))
	case err != nil:
		st.finishAdd(nil, err)
	default:
		st.vni = vni
		p.eng.AfterCall(p.eng.Jitter(svcOpCost, 0.3), cxiCreate, st)
	}
}

func cxiRefetch(a any) { a.(*cxiStep).fetchVNI() }

// cxiCreate installs the CXI service binding the container netns to the
// fetched VNI.
func cxiCreate(a any) {
	st := a.(*cxiStep)
	p, args, vni := st.p, st.args, st.vni
	id, err := p.dev.SvcAlloc(p.root, cxi.SvcDesc{
		Name:       "cni-" + args.ContainerID,
		Restricted: true,
		Members:    []cxi.Member{cxi.NetNSMember(args.NetNS)},
		VNIs:       []fabric.VNI{vni},
	})
	if err != nil {
		st.finishAdd(nil, fmt.Errorf("svc alloc: %v", err))
		return
	}
	p.services[args.ContainerID] = id
	p.stats.AddsConfigured++
	st.prev.AttachCXI(CXIAttachment{Device: p.dev.Name, SvcID: int(id), VNI: uint32(vni)})
	st.finishAdd(st.prev, nil)
}

// Del implements the DEL verb: destroy any CXI service associated with the
// container. Idempotent.
func (p *CXIPlugin) Del(args Args, done func(error)) {
	p.stats.DelsTotal++
	p.after(svcOpCost, cxiDel, args).done = done
}

func cxiDel(a any) {
	st := a.(*cxiStep)
	p, args, done := st.p, st.args, st.done
	st.recycle()
	var firstErr error
	// Prefer the recorded binding; fall back to a member search so
	// services survive plugin restarts.
	if id, ok := p.services[args.ContainerID]; ok {
		if err := p.dev.SvcDestroy(p.root, id); err == nil {
			p.stats.SvcsDestroyed++
		} else {
			firstErr = err
		}
		delete(p.services, args.ContainerID)
	} else if args.NetNS != nsmodel.InvalidInode {
		for _, id := range p.dev.SvcFindByMember(cxi.NetNSMember(args.NetNS)) {
			if err := p.dev.SvcDestroy(p.root, id); err == nil {
				p.stats.SvcsDestroyed++
			} else if firstErr == nil {
				firstErr = err
			}
		}
	}
	done(firstErr)
}

// Check verifies the recorded CXI service still exists for VNI pods.
func (p *CXIPlugin) Check(args Args, done func(error)) {
	p.after(apiQueryCost, cxiCheck, args).done = done
}

func cxiCheck(a any) {
	st := a.(*cxiStep)
	p, args, done := st.p, st.args, st.done
	st.recycle()
	id, ok := p.services[args.ContainerID]
	if !ok {
		done(nil) // passthrough pod
		return
	}
	if _, exists := p.dev.SvcGet(id); !exists {
		done(fmt.Errorf("cxi service %d for container %s vanished", id, args.ContainerID))
		return
	}
	done(nil)
}
