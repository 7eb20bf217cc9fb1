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

// CXIPluginConfig tunes the CXI CNI plugin.
type CXIPluginConfig struct {
	// APIQueryCost models the plugin's query to the Kubernetes management
	// plane for pod annotations and the VNI CRD instance.
	APIQueryCost sim.Duration
	// SvcOpCost models the ioctl round trip creating or destroying a CXI
	// service in the driver.
	SvcOpCost sim.Duration
	// VNIFetchRetries and VNIFetchBackoff govern waiting for the VNI CRD
	// instance to appear (it is created by the VNI controller; the pod
	// creation gate makes this race rare but not impossible).
	VNIFetchRetries int
	VNIFetchBackoff sim.Duration
}

// DefaultCXIPluginConfig returns calibrated costs.
func DefaultCXIPluginConfig() CXIPluginConfig {
	return CXIPluginConfig{
		APIQueryCost:    8 * time.Millisecond,
		SvcOpCost:       3 * time.Millisecond,
		VNIFetchRetries: 10,
		VNIFetchBackoff: 150 * time.Millisecond,
	}
}

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
	cfg  CXIPluginConfig

	// services tracks created CXI services by container ID so DEL can
	// clean up even if the netns is already gone.
	services map[string]cxi.SvcID
	stats    CXIPluginStats
}

// NewCXIPlugin creates the plugin for one node's CXI device. root must be a
// host-root process (the runtime invokes CNI plugins with elevated
// permissions).
func NewCXIPlugin(eng *sim.Engine, cli *k8s.Client, dev *cxi.Device, root nsmodel.PID, cfg CXIPluginConfig) *CXIPlugin {
	return &CXIPlugin{
		eng: eng, cli: cli, vnis: vniapi.VNILister(cli), dev: dev, root: root, cfg: cfg,
		services: make(map[string]cxi.SvcID),
	}
}

// Name implements Plugin.
func (p *CXIPlugin) Name() string { return "cxi" }

// Stats returns a copy of the plugin counters.
func (p *CXIPlugin) Stats() CXIPluginStats { return p.stats }

// Add implements the ADD verb.
func (p *CXIPlugin) Add(args Args, prev *Result, done func(*Result, error)) {
	p.stats.AddsTotal++
	// Query the management plane for the pod's annotations.
	p.eng.After(p.eng.Jitter(p.cfg.APIQueryCost, 0.3), func() {
		obj, ok := p.cli.Get(k8s.KindPod, args.PodNamespace, args.PodName)
		if !ok {
			p.stats.AddsFailed++
			done(nil, fmt.Errorf("pod %s/%s not found", args.PodNamespace, args.PodName))
			return
		}
		pod := obj.(*k8s.Pod)
		requested, _ := vniapi.Requested(pod.Meta.Annotations)
		if !requested {
			// Not a Slingshot pod: do nothing, do not interfere.
			p.stats.AddsPassthru++
			done(prev, nil)
			return
		}
		if pod.Spec.TerminationGracePeriod > vniapi.MaxGracePeriod {
			p.stats.AddsFailed++
			done(nil, fmt.Errorf("termination grace period %v exceeds enforced maximum %v",
				time.Duration(pod.Spec.TerminationGracePeriod), time.Duration(vniapi.MaxGracePeriod)))
			return
		}
		if args.NetNS == nsmodel.InvalidInode {
			p.stats.AddsFailed++
			done(nil, fmt.Errorf("container %s has no netns", args.ContainerID))
			return
		}
		jobName := pod.Meta.Labels["job-name"]
		p.fetchVNI(args, jobName, p.cfg.VNIFetchRetries, func(vni fabric.VNI, err error) {
			if err != nil {
				// No VNI could be fetched: the container fails to
				// launch (paper §III-B).
				p.stats.AddsFailed++
				done(nil, err)
				return
			}
			p.createService(args, vni, prev, done)
		})
	})
}

// fetchVNI looks up the VNI CRD instance attached to the pod's job through
// the by-job index: O(1) per ADD instead of the seed's copy-scan over every
// VNI CRD in the namespace.
func (p *CXIPlugin) fetchVNI(args Args, jobName string, retries int, done func(fabric.VNI, error)) {
	p.eng.After(p.eng.Jitter(p.cfg.APIQueryCost, 0.3), func() {
		vni, err := vniapi.JobVNI(p.vnis, args.PodNamespace, jobName)
		if err != vniapi.ErrNoInstance {
			done(vni, err)
			return
		}
		if retries > 0 {
			p.eng.After(p.eng.Jitter(p.cfg.VNIFetchBackoff, 0.3), func() {
				p.fetchVNI(args, jobName, retries-1, done)
			})
			return
		}
		done(0, fmt.Errorf("no VNI CRD instance for job %q in namespace %q", jobName, args.PodNamespace))
	})
}

// createService installs the CXI service binding the container netns to vni.
func (p *CXIPlugin) createService(args Args, vni fabric.VNI, prev *Result, done func(*Result, error)) {
	p.eng.After(p.eng.Jitter(p.cfg.SvcOpCost, 0.3), func() {
		id, err := p.dev.SvcAlloc(p.root, cxi.SvcDesc{
			Name:       "cni-" + args.ContainerID,
			Restricted: true,
			Members:    []cxi.Member{cxi.NetNSMember(args.NetNS)},
			VNIs:       []fabric.VNI{vni},
		})
		if err != nil {
			p.stats.AddsFailed++
			done(nil, fmt.Errorf("svc alloc: %v", err))
			return
		}
		p.services[args.ContainerID] = id
		p.stats.AddsConfigured++
		prev.CXI = &CXIAttachment{Device: p.dev.Name, SvcID: int(id), VNI: uint32(vni)}
		done(prev, nil)
	})
}

// Del implements the DEL verb: destroy any CXI service associated with the
// container. Idempotent.
func (p *CXIPlugin) Del(args Args, done func(error)) {
	p.stats.DelsTotal++
	p.eng.After(p.eng.Jitter(p.cfg.SvcOpCost, 0.3), func() {
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
	})
}

// Check verifies the recorded CXI service still exists for VNI pods.
func (p *CXIPlugin) Check(args Args, done func(error)) {
	p.eng.After(p.eng.Jitter(p.cfg.APIQueryCost, 0.3), func() {
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
	})
}
