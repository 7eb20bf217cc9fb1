package vnisvc

import (
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metactl"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

// The VNI service's calibrated latencies, the same for both decorators.
const (
	// webhookLatency is the controller→endpoint HTTP round trip (the
	// endpoint runs as a pod in the cluster).
	webhookLatency = 15 * time.Millisecond
	// finalizeRetry is the backoff for stalled finalizations (claims with
	// live users).
	finalizeRetry = 500 * time.Millisecond
	// jitter is the fraction both latencies vary by.
	jitter = 0.35
)

// Service is the installed VNI service.
type Service struct {
	Endpoint *Endpoint
	JobCtl   *metactl.Decorator
	ClaimCtl *metactl.Decorator
}

// Install wires the VNI service into a cluster: two decorator controllers
// (jobs and claims) backed by the endpoint, plus the pod-creation gate that
// holds pods of vni-annotated jobs until their VNI CRD instance exists —
// the mechanism behind "pods can only launch when their acquisition request
// for a fresh VNI has been served" (paper §III-C1).
func Install(cli *k8s.Client, jobCtl *k8s.JobController, db *vnidb.DB) *Service {
	ep := NewEndpoint(db, cli.Engine())
	vnis := vniapi.VNILister(cli)

	jobDecorator := metactl.NewDecorator(cli, metactl.Config{
		Name:       "vni-job-controller",
		ParentKind: k8s.KindJob,
		Selector: func(obj k8s.Object) bool {
			ok, _ := vniapi.Requested(obj.GetMeta().Annotations)
			return ok
		},
		ChildKind:      vniapi.KindVNI,
		Finalizer:      vniapi.JobFinalizer,
		WebhookLatency: webhookLatency,
		FinalizeRetry:  finalizeRetry,
		Jitter:         jitter,
	}, ep.JobHooks())

	claimDecorator := metactl.NewDecorator(cli, metactl.Config{
		Name:           "vni-claim-controller",
		ParentKind:     vniapi.KindVniClaim,
		ChildKind:      vniapi.KindVNI,
		Finalizer:      vniapi.ClaimFinalizer,
		WebhookLatency: webhookLatency,
		FinalizeRetry:  finalizeRetry,
		Jitter:         jitter,
	}, ep.ClaimHooks())

	// Pod-creation gate: a vni-annotated job's pods wait for its VNI CRD.
	// The check is an O(1) indexed-lister lookup; it stays correct across
	// the informer staleness window because the requeue below is driven by
	// the same informer, whose cache absorbs the ADDED event before any
	// handler (and hence any gate re-check) runs.
	jobCtl.SetGate(func(job *k8s.Job) bool {
		requested, _ := vniapi.Requested(job.Meta.Annotations)
		if !requested {
			return true
		}
		return vnis.IndexCount(vniapi.IndexVNIByJob, k8s.IndexKey{Namespace: job.Meta.Namespace, Name: job.Meta.Name}) > 0
	})
	// When a VNI CRD instance appears, requeue its job so gated pods are
	// created promptly.
	cli.Watch(vniapi.KindVNI, k8s.WatchOptions{}, func(ev k8s.Event) {
		if ev.Type != k8s.EventAdded {
			return
		}
		cr := ev.Object.(*k8s.Custom)
		jobName := cr.Spec[vniapi.SpecJob]
		if jobName == "" {
			return
		}
		// A stored job has its key already; only a vanished one needs it
		// built (its reconcile then finds nothing to do).
		if job, ok := cli.Get(k8s.KindJob, cr.Meta.Namespace, jobName); ok {
			jobCtl.RequeueJob(job.GetMeta().Key())
		} else {
			jobCtl.RequeueJob(cr.Meta.Namespace + "/" + jobName)
		}
	})

	return &Service{Endpoint: ep, JobCtl: jobDecorator, ClaimCtl: claimDecorator}
}

// Resync requeues every vni-annotated job and claim through the webhook,
// mirroring Metacontroller's periodic resync. Scenario runs use it after
// capacity frees (e.g. post-exhaustion) so jobs whose sync previously failed
// retry without waiting for another parent event.
func (s *Service) Resync() {
	s.JobCtl.Resync()
	s.ClaimCtl.Resync()
}

// NewClaim builds a VniClaim object (paper Listing 2).
func NewClaim(namespace, objectName, claimName string) *k8s.Custom {
	return &k8s.Custom{
		Meta: k8s.Meta{Kind: vniapi.KindVniClaim, Namespace: namespace, Name: objectName},
		Spec: map[string]string{vniapi.ClaimSpecName: claimName},
	}
}
