package k8s

import (
	"errors"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// podCreateLatency is the controller-side cost per pod creation (workqueue
// processing plus client round trip). Together with QPS limiting it
// reproduces the linear admission behaviour the paper observes under burst
// load.
const podCreateLatency = 18 * time.Millisecond

// JobControllerConfig tunes the job controller's work rate.
type JobControllerConfig struct {
	// MaxQPS caps controller API writes per second (client-go rate
	// limiter); 0 disables the cap.
	MaxQPS float64
	// Jitter fraction on latencies.
	Jitter float64
}

// DefaultJobControllerConfig is calibrated against k3s defaults.
func DefaultJobControllerConfig() JobControllerConfig {
	return JobControllerConfig{
		MaxQPS: 20,
		Jitter: 0.35,
	}
}

// JobController creates pods for jobs, tracks their completion, and deletes
// finished jobs that request it — the behaviour the paper's admission tests
// depend on ("Jobs are configured to be deleted immediately after
// completion").
type JobController struct {
	cli  *Client
	cfg  JobControllerConfig
	pods Lister // indexed by IndexPodJob for O(pods-of-job) recounts
	// workqueue of job keys with pods left to create; queued holds exactly
	// the keys in queue, so enqueue de-duplicates without scanning it.
	queue  fifo[string]
	queued map[string]struct{}
	busy   bool
	// current is the key the reconcile in flight (busy) is for: pump's
	// event carries the controller, not a closure over the key.
	current string
	lastOp  sim.Time
	created map[string]int // pods created per job key
	// lost counts non-terminal pods deleted out from under an incomplete
	// job (node drain). Each lost pod raises the creation target by one so
	// reconcile mints a replacement with a fresh monotonic name; jobs that
	// never lose pods keep lost == 0 and behave exactly as before.
	lost map[string]int

	// gate, when set, defers pod creation for a job until it returns
	// true. The VNI integration installs a gate so pods of vni-annotated
	// jobs wait for their VNI CRD instance (paper: "Pods can therefore
	// only launch when their acquisition request for a fresh VNI has been
	// served").
	gate func(job *Job) bool

	// patches recycles onPodUpdate's records and creates reconcile's;
	// recounted is the buffer the patches' pods-by-job reads land in, empty
	// between recounts.
	patches   sim.FreeList[statusPatch]
	creates   sim.FreeList[podCreate]
	recounted []Object
}

// NewJobController creates and starts the controller.
func NewJobController(cli *Client, cfg JobControllerConfig) *JobController {
	c := &JobController{cli: cli, cfg: cfg, queued: make(map[string]struct{}),
		created: make(map[string]int), lost: make(map[string]int)}
	podInformer := cli.Informer(KindPod)
	podInformer.AddIndex(IndexPodJob, PodJobIndex)
	c.pods = podInformer.Lister()
	cli.Watch(KindJob, WatchOptions{}, func(ev Event) {
		job := ev.Object.(*Job)
		switch ev.Type {
		case EventAdded:
			c.enqueue(job.Meta.Key())
		case EventModified:
			// A gate that was closed may have opened (e.g. VNI CRD
			// appeared); re-queue jobs with pods outstanding.
			if c.created[job.Meta.Key()] < job.Spec.Parallelism+c.lost[job.Meta.Key()] {
				c.enqueue(job.Meta.Key())
			}
		case EventDeleted:
			delete(c.created, job.Meta.Key())
			delete(c.lost, job.Meta.Key())
		}
	})
	cli.Watch(KindPod, WatchOptions{Selector: func(obj Object) bool {
		return obj.(*Pod).Meta.Labels["job-name"] != ""
	}}, func(ev Event) {
		switch ev.Type {
		case EventModified:
			c.onPodUpdate(ev.Object.(*Pod))
		case EventDeleted:
			c.onPodDeleted(ev.Object.(*Pod))
		}
	})
	return c
}

// SetGate installs the pod-creation gate (see JobController.gate).
func (c *JobController) SetGate(gate func(job *Job) bool) { c.gate = gate }

// RequeueJob asks the controller to revisit a job (used by the VNI
// integration when a gate opens).
func (c *JobController) RequeueJob(key string) { c.enqueue(key) }

func (c *JobController) enqueue(key string) {
	if _, dup := c.queued[key]; dup {
		return
	}
	c.queued[key] = struct{}{}
	c.queue.push(key)
	c.pump()
}

// pump serializes controller work and applies the QPS cap.
func (c *JobController) pump() {
	if c.busy || c.queue.len() == 0 {
		return
	}
	c.busy = true
	c.current = c.queue.pop()
	delete(c.queued, c.current)
	eng := c.cli.Engine()
	delay := eng.Jitter(podCreateLatency, c.cfg.Jitter)
	if c.cfg.MaxQPS > 0 {
		// The client-side rate limiter gates API writes, not no-op
		// reconciles: the gap is measured from the last actual write
		// (lastOp is stamped in reconcile when a pod is created).
		minGap := sim.Duration(float64(time.Second) / c.cfg.MaxQPS)
		if next := c.lastOp.Add(minGap); next > eng.Now().Add(delay) {
			delay = next.Sub(eng.Now())
		}
	}
	eng.AfterCall(delay, reconcileCall, c)
}

// reconcileCall is pump's event body; arg is the controller.
func reconcileCall(arg any) {
	c := arg.(*JobController)
	key := c.current
	c.current = ""
	c.reconcile(key)
	c.busy = false
	c.pump()
}

// reconcile creates the next missing pod for the job, re-queueing itself
// until Parallelism pods exist.
func (c *JobController) reconcile(key string) {
	ns, name := SplitKey(key)
	obj, ok := c.cli.Get(KindJob, ns, name)
	if !ok {
		return
	}
	job := obj.(*Job)
	if job.Meta.Deleting || job.Status.Completed {
		return
	}
	n := c.created[key]
	if n >= job.Spec.Parallelism+c.lost[key] {
		return
	}
	if c.gate != nil && !c.gate(job) {
		// Gate closed: the gate owner is responsible for requeueing.
		return
	}
	pod := &Pod{
		Meta: Meta{
			Kind:        KindPod,
			Namespace:   job.Meta.Namespace,
			Name:        job.Meta.Name + "-" + strconv.Itoa(n),
			Annotations: job.Meta.Annotations, // an immutable value: shared, not copied
			Labels:      map[string]string{"job-name": job.Meta.Name},
			OwnerUID:    job.Meta.UID,
		},
		Spec:   job.Spec.Template,
		Status: PodStatus{Phase: PodPending},
	}
	c.created[key] = n + 1
	c.lastOp = c.cli.Engine().Now()
	w := c.creates.Get()
	w.c, w.key = c, key
	c.cli.Create(pod, w)
	if c.created[key] < job.Spec.Parallelism+c.lost[key] {
		c.enqueue(key)
	}
}

// podCreate is one reconcile's pod Create in flight, and hears its outcome:
// the job key whose count it raised.
type podCreate struct {
	c   *JobController
	key string
}

// Wrote recycles the record, then takes a failed create back off the job's
// count.
func (w *podCreate) Wrote(err error) {
	c, key := w.c, w.key
	*w = podCreate{}
	c.creates.Put(w)
	if err != nil {
		c.created[key]--
		// Retry budget spent against an unavailable apiserver: the write
		// was queued, not dropped — requeue so the pod is recreated once
		// the control plane recovers.
		if errors.Is(err, ErrRetriesExhausted) {
			c.enqueue(key)
		}
	}
}

// onPodDeleted replaces a pod deleted before it reached a terminal phase
// (a node drain evicting a gang member). Terminal pods already counted
// toward completion; replacing them would overshoot Parallelism.
func (c *JobController) onPodDeleted(pod *Pod) {
	switch pod.Status.Phase {
	case PodSucceeded, PodFailed:
		return
	}
	jobName := pod.Meta.Labels["job-name"]
	key := pod.Meta.Namespace + "/" + jobName
	obj, ok := c.cli.Get(KindJob, pod.Meta.Namespace, jobName)
	if !ok {
		return
	}
	job := obj.(*Job)
	if job.Meta.Deleting || job.Status.Completed {
		return
	}
	c.lost[key]++
	c.enqueue(key)
}

// onPodUpdate folds pod phase changes into job status.
func (c *JobController) onPodUpdate(pod *Pod) {
	job, ok := pod.Meta.Labels["job-name"]
	if !ok {
		return
	}
	u := c.patches.Get()
	u.c, u.ns, u.job = c, pod.Meta.Namespace, job
	c.cli.Patch(KindJob, u.ns, u.job, u)
}

// statusPatch is one onPodUpdate in flight and the Mutation its Patch
// takes: the job it recounts, and whether the latest recount completed a
// job to delete ttl later. A pod event allocates nothing beyond the version
// it commits.
type statusPatch struct {
	c       *JobController
	ns, job string
	expire  bool
	ttl     sim.Duration
}

// Mutate is the recount: O(pods of this job), read from the shared
// pod informer — which absorbed the triggering event before the handler ran
// — through the pods-by-job index into the controller's buffer. Recounting
// per attempt keeps a conflict-driven retry from committing counts captured
// before a newer recount committed.
func (u *statusPatch) Mutate(obj Object) bool {
	c, job := u.c, obj.(*Job)
	u.expire, u.ttl = false, 0
	if job.Status.Completed {
		return false
	}
	active, succeeded, failed := 0, 0, 0
	var lastStart sim.Time
	c.recounted = c.pods.AppendByIndex(c.recounted[:0], IndexPodJob, IndexKey{u.ns, u.job})
	for _, po := range c.recounted {
		p := po.(*Pod)
		switch p.Status.Phase {
		case PodRunning:
			active++
			if p.Status.StartedAt > lastStart {
				lastStart = p.Status.StartedAt
			}
		case PodSucceeded:
			succeeded++
			if p.Status.StartedAt > lastStart {
				lastStart = p.Status.StartedAt
			}
		case PodFailed:
			failed++
		case PodPending, PodScheduled:
			active++
		}
	}
	clear(c.recounted)
	job.Status.Active = active
	job.Status.Failed = failed
	job.Status.Succeeded = succeeded
	if job.Status.StartedAt == 0 && lastStart > 0 {
		job.Status.StartedAt = lastStart
	}
	if succeeded+failed >= job.Spec.Parallelism && job.Spec.Parallelism > 0 {
		job.Status.Completed = true
		job.Status.CompletedAt = c.cli.Engine().Now()
		job.Status.AdmittedAt = lastStart
		u.expire, u.ttl = job.Spec.DeleteAfterFinished, job.Spec.TTLAfterFinished
	}
	return true
}

// Wrote runs when the Patch completed, after which Mutate is not called
// again: it recycles the record, or keeps it to delete the job it completed
// ttl later.
func (u *statusPatch) Wrote(err error) {
	if err == nil && u.expire {
		u.c.cli.Engine().AfterCall(u.ttl, expireCall, u)
		return
	}
	u.recycle()
}

func (u *statusPatch) recycle() {
	u.ns, u.job = "", ""
	u.c.patches.Put(u)
}

// expireCall deletes a finished job; arg is the *statusPatch that found it
// complete.
func expireCall(arg any) {
	u := arg.(*statusPatch)
	c, ns, job := u.c, u.ns, u.job
	u.recycle()
	c.cli.Delete(KindJob, ns, job, nil)
}
