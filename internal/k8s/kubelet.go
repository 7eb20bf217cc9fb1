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
	// ADD chain. done receives the setup error, if any (a failed CNI ADD
	// fails the pod launch, per the paper).
	SetupPod(pod *Pod, done func(error))
	// TeardownPod destroys the sandbox, invoking the CNI DEL chain.
	TeardownPod(pod *Pod, done func())
}

// KubeletConfig tunes the node agent.
type KubeletConfig struct {
	// Workers is the number of concurrent pod workers per node.
	Workers int
	// ImagePull is the cost of resolving/mounting the image from the
	// local registry (the paper pulls alpine from a local Harbor to keep
	// this small).
	ImagePull sim.Duration
	// ContainerStart is the cost of creating and starting the container
	// after the sandbox exists.
	ContainerStart sim.Duration
	// StatusLag delays pod status propagation back to the API server,
	// standing in for the kubelet sync loop.
	StatusLag sim.Duration
	// Jitter fraction on all of the above.
	Jitter float64
}

// DefaultKubeletConfig is calibrated so the end-to-end admission pipeline
// reproduces the paper's baseline (k3s on two Ampere Altra nodes).
func DefaultKubeletConfig() KubeletConfig {
	return KubeletConfig{
		Workers:        2,
		ImagePull:      120 * time.Millisecond,
		ContainerStart: 300 * time.Millisecond,
		StatusLag:      80 * time.Millisecond,
		Jitter:         0.35,
	}
}

// Kubelet runs pods bound to one node through the container runtime. It
// watches only its own node's pods (a fieldSelector-style filtered watch),
// so per-node work no longer scales with the whole fleet's event stream.
type Kubelet struct {
	cli     *Client
	cfg     KubeletConfig
	node    string
	rt      Runtime
	queue   []func(done func())
	running int
	// livePods tracks pods with sandboxes, so deletions trigger teardown
	// exactly once.
	livePods map[string]*Pod
	// exitTimers holds each running container's pending exit event, so
	// killing a pod cancels the timer instead of leaving a stale no-op
	// event on the engine until the original RunDuration elapses.
	exitTimers map[string]sim.Event
}

// NewKubelet creates and starts the node agent for node.
func NewKubelet(cli *Client, cfg KubeletConfig, node string, rt Runtime) *Kubelet {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	k := &Kubelet{cli: cli, cfg: cfg, node: node, rt: rt,
		livePods: make(map[string]*Pod), exitTimers: make(map[string]sim.Event)}
	cli.Watch(KindPod, WatchOptions{Selector: func(obj Object) bool {
		return obj.(*Pod).Spec.NodeName == node
	}}, func(ev Event) {
		pod := ev.Object.(*Pod)
		switch ev.Type {
		case EventModified:
			if pod.Status.Phase == PodScheduled {
				if _, seen := k.livePods[pod.Meta.Key()]; !seen {
					// Adopted pods are kept and their Status written to
					// (setPhaseAt), and event objects are committed, hence
					// immutable: take the kubelet's private struct here.
					pod = pod.Clone().(*Pod)
					k.livePods[pod.Meta.Key()] = pod
					k.submit(func(done func()) { k.startPod(pod, done) })
				}
			}
		case EventDeleted:
			if live, ok := k.livePods[pod.Meta.Key()]; ok {
				delete(k.livePods, pod.Meta.Key())
				if ev, armed := k.exitTimers[pod.Meta.Key()]; armed {
					ev.Cancel()
					delete(k.exitTimers, pod.Meta.Key())
				}
				k.submit(func(done func()) { k.teardownPod(live, done) })
			}
		}
	})
	return k
}

// Node returns the node name.
func (k *Kubelet) Node() string { return k.node }

func (k *Kubelet) submit(run func(done func())) {
	k.queue = append(k.queue, run)
	k.pump()
}

func (k *Kubelet) pump() {
	for k.running < k.cfg.Workers && len(k.queue) > 0 {
		run := k.queue[0]
		k.queue[0] = nil // drop the task, and the pod it captured, with the pop
		k.queue = k.queue[1:]
		k.running++
		run(func() {
			k.running--
			k.pump()
		})
	}
}

func (k *Kubelet) jit(d sim.Duration) sim.Duration {
	return k.cli.Engine().Jitter(d, k.cfg.Jitter)
}

// startPod executes the pod-start pipeline: image pull, sandbox+CNI,
// container start, then status updates and (for the echo workloads) the
// container exit.
func (k *Kubelet) startPod(pod *Pod, done func()) {
	eng := k.cli.Engine()
	eng.After(k.jit(k.cfg.ImagePull), func() {
		k.rt.SetupPod(pod, func(err error) {
			if err != nil {
				k.setPhase(pod, PodFailed, err.Error())
				delete(k.livePods, pod.Meta.Key())
				done()
				return
			}
			eng.After(k.jit(k.cfg.ContainerStart), func() {
				started := eng.Now()
				eng.After(k.jit(k.cfg.StatusLag), func() {
					k.setPhaseAt(pod, PodRunning, "", started)
				})
				// Container main process: runs for RunDuration, then
				// exits successfully. The worker slot is released at
				// start — the kubelet does not block on user code. The
				// timer is cancelled if the pod is deleted first.
				k.exitTimers[pod.Meta.Key()] = eng.After(eng.Jitter(pod.Spec.RunDuration, k.cfg.Jitter)+k.jit(k.cfg.StatusLag), func() {
					delete(k.exitTimers, pod.Meta.Key())
					k.setPhase(pod, PodSucceeded, "")
				})
				done()
			})
		})
	})
}

// teardownPod kills the container (applying the grace period only if still
// running) and runs the CNI DEL chain.
func (k *Kubelet) teardownPod(pod *Pod, done func()) {
	eng := k.cli.Engine()
	grace := sim.Duration(0)
	if obj, ok := k.cli.Get(KindPod, pod.Meta.Namespace, pod.Meta.Name); ok {
		// Pod object still around (shouldn't happen after DELETED), be safe.
		if p := obj.(*Pod); p.Status.Phase == PodRunning {
			grace = p.Spec.TerminationGracePeriod
		}
	} else if pod.Status.Phase == PodRunning {
		grace = pod.Spec.TerminationGracePeriod
	}
	eng.After(grace, func() {
		k.rt.TeardownPod(pod, done)
	})
}

func (k *Kubelet) setPhase(pod *Pod, phase PodPhase, msg string) {
	k.setPhaseAt(pod, phase, msg, k.cli.Engine().Now())
}

// setPhaseAt records a phase transition. Transitions on already-deleted
// pods are ignored.
func (k *Kubelet) setPhaseAt(pod *Pod, phase PodPhase, msg string, at sim.Time) {
	k.cli.UpdateStatus(KindPod, pod.Meta.Namespace, pod.Meta.Name, func(obj Object) bool {
		p := obj.(*Pod)
		switch p.Status.Phase {
		case PodSucceeded, PodFailed:
			return false // terminal
		}
		p.Status.Phase = phase
		p.Status.Message = msg
		switch phase {
		case PodRunning:
			p.Status.StartedAt = at
		case PodSucceeded, PodFailed:
			p.Status.EndedAt = at
		}
		pod.Status = p.Status
		return true
	})
}
