package k8s

import (
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Runtime is the container runtime a kubelet drives. The real stack is
// containerd invoking the CNI chain; internal/container provides the
// simulated implementation with the CXI CNI plugin wired in.
type Runtime interface {
	// SetupPod creates the pod sandbox: network namespace plus the CNI
	// ADD chain, then calls done.SetupDone with the setup error, if any (a
	// failed CNI ADD fails the pod launch, per the paper).
	SetupPod(pod *Pod, done PodDone)
	// TeardownPod destroys the sandbox, invoking the CNI DEL chain, then
	// calls done.TornDown.
	TeardownPod(pod *Pod, done PodDone)
}

// PodDone is told when a Runtime call ends, exactly once per call. The
// kubelet hands the runtime its pod task, which implements it: a call
// makes no callback.
type PodDone interface {
	SetupDone(err error)
	TornDown()
}

// The node agent's costs, calibrated so the end-to-end admission pipeline
// reproduces the paper's baseline (k3s on two Ampere Altra nodes).
const (
	// kubeletWorkers is the number of concurrent pod workers per node.
	kubeletWorkers = 2
	// imagePull is the cost of resolving/mounting the image from the local
	// registry (the paper pulls alpine from a local Harbor to keep this
	// small).
	imagePull = 120 * time.Millisecond
	// containerStart is the cost of creating and starting the container
	// after the sandbox exists.
	containerStart = 300 * time.Millisecond
	// statusLag delays pod status propagation back to the API server,
	// standing in for the kubelet sync loop.
	statusLag = 80 * time.Millisecond
)

// KubeletConfig tunes the node agent.
type KubeletConfig struct {
	// Jitter fraction on every kubelet cost and on the pod's run time.
	Jitter float64
}

// DefaultKubeletConfig returns the calibrated jitter.
func DefaultKubeletConfig() KubeletConfig { return KubeletConfig{Jitter: 0.35} }

// Kubelet runs pods bound to one node through the container runtime. It
// watches only its own node's pods (a fieldSelector-style filtered watch),
// so per-node work no longer scales with the whole fleet's event stream.
type Kubelet struct {
	cli     *Client
	cfg     KubeletConfig
	node    string
	rt      Runtime
	queue   fifo[*podTask]
	running int
	// livePods tracks pods with sandboxes, so deletions trigger teardown
	// exactly once: the committed pod as adopted, then each version the
	// kubelet's own status writes commit (all read-only).
	livePods map[string]*Pod
	// exitTimers holds each running container's task while its exit event
	// is pending, so killing a pod cancels the timer instead of leaving a
	// stale no-op event on the engine until the original RunDuration
	// elapses.
	exitTimers map[string]*podTask
	// tasks and writes recycle the pod tasks and the status writes.
	tasks  sim.FreeList[podTask]
	writes sim.FreeList[phaseWrite]
}

// NewKubelet creates and starts the node agent for node.
func NewKubelet(cli *Client, cfg KubeletConfig, node string, rt Runtime) *Kubelet {
	k := &Kubelet{cli: cli, cfg: cfg, node: node, rt: rt,
		livePods: make(map[string]*Pod), exitTimers: make(map[string]*podTask)}
	cli.Watch(KindPod, WatchOptions{Selector: func(obj Object) bool {
		return obj.(*Pod).Spec.NodeName == node
	}}, func(ev Event) {
		pod := ev.Object.(*Pod)
		switch ev.Type {
		case EventModified:
			if pod.Status.Phase == PodScheduled {
				if _, seen := k.livePods[pod.Meta.Key()]; !seen {
					// The runtime reads only Meta and Spec, which no status
					// write changes: the committed pod serves as it is.
					k.livePods[pod.Meta.Key()] = pod
					k.submit(pod, false)
				}
			}
		case EventDeleted:
			if live, ok := k.livePods[pod.Meta.Key()]; ok {
				delete(k.livePods, pod.Meta.Key())
				if t, armed := k.exitTimers[pod.Meta.Key()]; armed {
					t.exit.Cancel()
					delete(k.exitTimers, pod.Meta.Key())
					t.release()
				}
				k.submit(live, true)
			}
		}
	})
	return k
}

// Node returns the node name.
func (k *Kubelet) Node() string { return k.node }

// podTask is one pod's work on the node, queued for a worker slot: its
// start — image pull, sandbox, container start, then the Running status and
// the exit timer, which outlive the slot — or its teardown. It is the
// argument of every engine event along the way, the runtime reports back
// to it (PodDone), and whichever of its events finishes last recycles it.
type podTask struct {
	k        *Kubelet
	pod      *Pod
	teardown bool
	started  sim.Time
	exit     sim.Event
	// pending counts the started container's Running status and exit
	// events still to fire (or, for the exit, to be cancelled).
	pending int
}

func (k *Kubelet) submit(pod *Pod, teardown bool) {
	t := k.tasks.Get()
	t.k, t.pod, t.teardown = k, pod, teardown
	k.queue.push(t)
	k.pump()
}

func (k *Kubelet) pump() {
	for k.running < kubeletWorkers && k.queue.len() > 0 {
		t := k.queue.pop()
		k.running++
		if t.teardown {
			k.teardownPod(t)
		} else {
			k.startPod(t)
		}
	}
}

// slotFreed returns a worker slot and starts the next queued task.
func (k *Kubelet) slotFreed() {
	k.running--
	k.pump()
}

// recycle puts the task back on the free list.
func (t *podTask) recycle() {
	k := t.k
	*t = podTask{}
	k.tasks.Put(t)
}

// release ends one of the started container's events.
func (t *podTask) release() {
	if t.pending--; t.pending == 0 {
		t.recycle()
	}
}

func (k *Kubelet) jit(d sim.Duration) sim.Duration {
	return k.cli.Engine().Jitter(d, k.cfg.Jitter)
}

// startPod executes the pod-start pipeline: image pull, sandbox+CNI,
// container start, then status updates and (for the echo workloads) the
// container exit.
func (k *Kubelet) startPod(t *podTask) {
	k.cli.Engine().AfterCall(k.jit(imagePull), pullImage, t)
}

func pullImage(arg any) {
	t := arg.(*podTask)
	t.k.rt.SetupPod(t.pod, t)
}

// SetupDone implements PodDone.
func (t *podTask) SetupDone(err error) {
	k := t.k
	if err != nil {
		k.setPhase(t.pod, PodFailed, err.Error())
		delete(k.livePods, t.pod.Meta.Key())
		t.recycle()
		k.slotFreed()
		return
	}
	k.cli.Engine().AfterCall(k.jit(containerStart), startContainer, t)
}

// startContainer reports Running after the status lag and arms the
// container main process's exit: it runs for RunDuration, then exits
// successfully. The worker slot is released at start — the kubelet does not
// block on user code. The exit is cancelled if the pod is deleted first.
func startContainer(arg any) {
	t := arg.(*podTask)
	k := t.k
	eng := k.cli.Engine()
	t.started = eng.Now()
	eng.AfterCall(k.jit(statusLag), reportRunning, t)
	t.exit = eng.AfterCall(eng.Jitter(t.pod.Spec.RunDuration, k.cfg.Jitter)+k.jit(statusLag), containerExited, t)
	t.pending = 2
	k.exitTimers[t.pod.Meta.Key()] = t
	k.slotFreed()
}

func reportRunning(arg any) {
	t := arg.(*podTask)
	t.k.setPhaseAt(t.pod, PodRunning, "", t.started)
	t.release()
}

func containerExited(arg any) {
	t := arg.(*podTask)
	delete(t.k.exitTimers, t.pod.Meta.Key())
	t.k.setPhase(t.pod, PodSucceeded, "")
	t.release()
}

// teardownPod kills the container (applying the grace period only if still
// running) and runs the CNI DEL chain.
func (k *Kubelet) teardownPod(t *podTask) {
	pod := t.pod
	grace := sim.Duration(0)
	if obj, ok := k.cli.Get(KindPod, pod.Meta.Namespace, pod.Meta.Name); ok {
		// Pod object still around (shouldn't happen after DELETED), be safe.
		if p := obj.(*Pod); p.Status.Phase == PodRunning {
			grace = p.Spec.TerminationGracePeriod
		}
	} else if pod.Status.Phase == PodRunning {
		grace = pod.Spec.TerminationGracePeriod
	}
	k.cli.Engine().AfterCall(grace, tearDown, t)
}

func tearDown(arg any) {
	t := arg.(*podTask)
	t.k.rt.TeardownPod(t.pod, t)
}

// TornDown implements PodDone.
func (t *podTask) TornDown() {
	k := t.k
	t.recycle()
	k.slotFreed()
}

func (k *Kubelet) setPhase(pod *Pod, phase PodPhase, msg string) {
	k.setPhaseAt(pod, phase, msg, k.cli.Engine().Now())
}

// setPhaseAt records a phase transition and files the version it commits in
// livePods while pod, this incarnation of the name, is still live there.
// Transitions on already-deleted pods are ignored.
func (k *Kubelet) setPhaseAt(pod *Pod, phase PodPhase, msg string, at sim.Time) {
	w := k.writes.Get()
	w.k, w.pod, w.phase, w.msg, w.at = k, pod, phase, msg, at
	k.cli.UpdateStatus(KindPod, pod.Meta.Namespace, pod.Meta.Name, w)
}

// phaseWrite is one setPhaseAt in flight and the Mutation its UpdateStatus
// takes: the pod incarnation it reports on, and the transition.
type phaseWrite struct {
	k     *Kubelet
	pod   *Pod
	phase PodPhase
	msg   string
	at    sim.Time
}

// Mutate applies the transition.
func (w *phaseWrite) Mutate(obj Object) bool {
	p := obj.(*Pod)
	switch p.Status.Phase {
	case PodSucceeded, PodFailed:
		return false // terminal
	}
	p.Status.Phase = w.phase
	p.Status.Message = w.msg
	switch w.phase {
	case PodRunning:
		p.Status.StartedAt = w.at
	case PodSucceeded, PodFailed:
		p.Status.EndedAt = w.at
	}
	k, key := w.k, w.pod.Meta.Key()
	if live, ok := k.livePods[key]; ok && live.Meta.UID == w.pod.Meta.UID {
		k.livePods[key] = p
	}
	return true
}

// Wrote recycles the record.
func (w *phaseWrite) Wrote(error) {
	k := w.k
	*w = phaseWrite{}
	k.writes.Put(w)
}
