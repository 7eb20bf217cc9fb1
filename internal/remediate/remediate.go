// Package remediate closes the health loop: it watches for nodes the
// health daemon cordoned (Node.Spec.Unschedulable plus the
// health.shs/reason annotation), drains their pods after a grace
// window, replaces the faulty hardware through a pluggable action with
// retry/backoff, and uncordons — all through the typed k8s.Client on
// the virtual clock. A remediation budget bounds how many nodes are in
// flight at once so a correlated failure cannot drain the whole fleet;
// excess cordons queue and are worked off as slots free up.
//
// Like internal/health, the controller is strictly opt-in: it installs
// a KindNode watch, so constructing one changes watch-delivery RNG
// draws — scenarios without a `health:` section must never build it.
package remediate

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/health"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// pollEvery is the drain-completion poll period.
const pollEvery = 50 * time.Millisecond

// Config tunes the remediation state machine. A zero field takes its
// DefaultConfig value.
type Config struct {
	// Budget is the maximum number of nodes remediated concurrently;
	// further cordons queue. <=0 means 1.
	Budget int
	// DrainGrace is how long to wait after adopting a cordoned node
	// before evicting its pods — the window a preemption-aware gang uses
	// to migrate off cleanly.
	DrainGrace sim.Duration
	// ReplaceDelay models the hardware swap (or node reprovision) time
	// after the Replace action succeeds, before the uncordon.
	ReplaceDelay sim.Duration
	// RetryBackoff is the initial backoff after a failed Replace action;
	// it doubles per attempt.
	RetryBackoff sim.Duration
	// MaxRetries bounds Replace attempts before the remediation is
	// declared failed (node stays cordoned for a human).
	MaxRetries int
}

// DefaultConfig returns a state machine that drains after 200ms, swaps
// hardware in 500ms, and tolerates transient replace failures.
func DefaultConfig() Config {
	return Config{
		Budget:       1,
		DrainGrace:   200 * time.Millisecond,
		ReplaceDelay: 500 * time.Millisecond,
		RetryBackoff: 100 * time.Millisecond,
		MaxRetries:   3,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	def := DefaultConfig()
	if out.Budget <= 0 {
		out.Budget = def.Budget
	}
	if out.DrainGrace <= 0 {
		out.DrainGrace = def.DrainGrace
	}
	if out.ReplaceDelay <= 0 {
		out.ReplaceDelay = def.ReplaceDelay
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = def.RetryBackoff
	}
	if out.MaxRetries <= 0 {
		out.MaxRetries = def.MaxRetries
	}
	return out
}

// Actions are the side effects the controller cannot perform through
// the API server alone.
type Actions struct {
	// Replace swaps the node's faulty hardware (reset error counters,
	// bring the NIC port back, rebaseline the health daemon). An error
	// triggers retry with backoff.
	Replace func(node string) error
}

// Phase is a node's position in the remediation state machine.
type Phase int

// Phases.
const (
	PhaseQueued Phase = iota
	PhaseDraining
	PhaseReplacing
	PhaseUncordoning
	PhaseDone
	PhaseFailed
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseDraining:
		return "draining"
	case PhaseReplacing:
		return "replacing"
	case PhaseUncordoning:
		return "uncordoning"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// EventKind classifies controller events.
type EventKind int

// Event kinds.
const (
	RemediationQueued EventKind = iota
	DrainStarted
	DrainCompleted
	NodeReplaced
	NodeUncordoned
	RemediationFailed
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case RemediationQueued:
		return "remediation-queued"
	case DrainStarted:
		return "drain-started"
	case DrainCompleted:
		return "drain-completed"
	case NodeReplaced:
		return "node-replaced"
	case NodeUncordoned:
		return "node-uncordoned"
	case RemediationFailed:
		return "remediation-failed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one state-machine step, emitted through OnEvent.
type Event struct {
	Time   sim.Time
	Kind   EventKind
	Node   string
	Detail string
}

type nodeRun struct {
	node    string
	phase   Phase
	retries int
}

// Controller works cordoned nodes through drain → replace → uncordon.
type Controller struct {
	eng     *sim.Engine
	cli     *k8s.Client
	cfg     Config
	actions Actions
	pods    k8s.Lister
	runs    map[string]*nodeRun
	order   []string // runs in adoption order, for deterministic snapshots
	queue   []string
	active  int
	done    int
	onEvent func(Event)
}

// New builds the controller and installs its KindNode watch; nodes
// already cordoned before New are not adopted (the daemon cordons
// through the API, so the watch sees every daemon cordon).
func New(eng *sim.Engine, cli *k8s.Client, cfg Config, actions Actions) *Controller {
	c := &Controller{
		eng:     eng,
		cli:     cli,
		cfg:     cfg.withDefaults(),
		actions: actions,
		pods:    cli.Lister(k8s.KindPod),
		runs:    make(map[string]*nodeRun),
	}
	cli.Watch(k8s.KindNode, k8s.WatchOptions{}, func(ev k8s.Event) {
		if ev.Type != k8s.EventModified {
			return
		}
		node := ev.Object.(*k8s.Node)
		if !node.Spec.Unschedulable || node.Meta.Annotations[health.AnnotationReason] == "" {
			return
		}
		c.adopt(node.Meta.Name)
	})
	return c
}

// OnEvent registers the single event sink.
func (c *Controller) OnEvent(fn func(Event)) { c.onEvent = fn }

// Remediate manually kicks a node into the loop: it cordons through
// the API with a "manual" reason, which the controller's own watch then
// adopts. Operators reach this via the ctl `remediate` command.
func (c *Controller) Remediate(node string) error {
	if _, ok := c.cli.Get(k8s.KindNode, "", node); !ok {
		return fmt.Errorf("remediate: unknown node %q", node)
	}
	c.cli.Patch(k8s.KindNode, "", node, k8s.MutateFunc(func(obj k8s.Object) bool {
		n := obj.(*k8s.Node)
		if n.Spec.Unschedulable && n.Meta.Annotations[health.AnnotationReason] != "" {
			return false
		}
		n.Spec.Unschedulable = true
		n.Meta.SetAnnotation(health.AnnotationReason, "manual")
		return true
	}))
	return nil
}

func (c *Controller) emit(kind EventKind, node, detail string) {
	if c.onEvent == nil {
		return
	}
	c.onEvent(Event{Time: c.eng.Now(), Kind: kind, Node: node, Detail: detail})
}

func (c *Controller) adopt(node string) {
	if r, ok := c.runs[node]; ok {
		if r.phase != PhaseDone && r.phase != PhaseFailed {
			return // already in flight or queued
		}
		// Re-cordoned after a completed run: start a fresh cycle.
	} else {
		c.order = append(c.order, node)
	}
	c.runs[node] = &nodeRun{node: node, phase: PhaseQueued}
	c.queue = append(c.queue, node)
	c.emit(RemediationQueued, node, "")
	c.pump()
}

// pump starts queued remediations while budget slots are free.
func (c *Controller) pump() {
	for c.active < c.cfg.Budget && len(c.queue) > 0 {
		node := c.queue[0]
		c.queue = c.queue[1:]
		c.active++
		c.startDrain(c.runs[node])
	}
}

func (c *Controller) finish(r *nodeRun, phase Phase) {
	r.phase = phase
	if phase == PhaseDone {
		c.done++
	}
	c.active--
	c.pump()
}

func (c *Controller) startDrain(r *nodeRun) {
	r.phase = PhaseDraining
	c.emit(DrainStarted, r.node, "")
	c.eng.After(c.cfg.DrainGrace, func() { c.evict(r) })
}

// evict deletes every non-terminal pod bound to the node, then polls
// until the informer cache shows the node empty.
func (c *Controller) evict(r *nodeRun) {
	evicted := 0
	for _, obj := range c.pods.List("") {
		pod := obj.(*k8s.Pod)
		if pod.Spec.NodeName != r.node || pod.Meta.Deleting {
			continue
		}
		switch pod.Status.Phase {
		case k8s.PodSucceeded, k8s.PodFailed:
			continue
		}
		// Evictions ride the retry layer so a drain that spans an apiserver
		// outage still completes: the deletes are queued with backoff, and
		// pollDrain keeps polling until the node empties.
		c.cli.Delete(k8s.KindPod, pod.Meta.Namespace, pod.Meta.Name, nil)
		evicted++
	}
	c.pollDrain(r, evicted)
}

func (c *Controller) pollDrain(r *nodeRun, evicted int) {
	if c.nodeEmpty(r.node) {
		c.emit(DrainCompleted, r.node, fmt.Sprintf("%d pod(s) evicted", evicted))
		c.replace(r)
		return
	}
	c.eng.After(pollEvery, func() { c.pollDrain(r, evicted) })
}

func (c *Controller) nodeEmpty(node string) bool {
	for _, obj := range c.pods.List("") {
		pod := obj.(*k8s.Pod)
		if pod.Spec.NodeName != node {
			continue
		}
		switch pod.Status.Phase {
		case k8s.PodSucceeded, k8s.PodFailed:
			continue
		}
		return false
	}
	return true
}

func (c *Controller) replace(r *nodeRun) {
	r.phase = PhaseReplacing
	var err error
	if c.actions.Replace != nil {
		err = c.actions.Replace(r.node)
	}
	if err != nil {
		r.retries++
		if r.retries > c.cfg.MaxRetries {
			c.emit(RemediationFailed, r.node, fmt.Sprintf("replace: %v (after %d retries)", err, c.cfg.MaxRetries))
			c.finish(r, PhaseFailed)
			return
		}
		backoff := c.cfg.RetryBackoff * sim.Duration(1<<(r.retries-1))
		c.eng.After(backoff, func() { c.replace(r) })
		return
	}
	c.emit(NodeReplaced, r.node, "")
	c.eng.After(c.cfg.ReplaceDelay, func() { c.uncordon(r) })
}

func (c *Controller) uncordon(r *nodeRun) {
	r.phase = PhaseUncordoning
	c.cli.Patch(k8s.KindNode, "", r.node, k8s.MutateFunc(func(obj k8s.Object) bool {
		n := obj.(*k8s.Node)
		if !n.Spec.Unschedulable {
			return false
		}
		n.Spec.Unschedulable = false
		n.Meta.DeleteAnnotation(health.AnnotationReason)
		return true
	}))
	c.emit(NodeUncordoned, r.node, "")
	c.finish(r, PhaseDone)
}

// Status is one node's remediation state for operators and telemetry.
type Status struct {
	Node    string
	Phase   Phase
	Retries int
}

// Snapshot returns every adopted node in adoption order.
func (c *Controller) Snapshot() []Status {
	out := make([]Status, 0, len(c.order))
	for _, node := range c.order {
		r := c.runs[node]
		out = append(out, Status{Node: r.node, Phase: r.phase, Retries: r.retries})
	}
	return out
}

// Budget returns the number of nodes remediated concurrently.
func (c *Controller) Budget() int { return c.cfg.Budget }

// Active returns how many remediations are in flight.
func (c *Controller) Active() int { return c.active }

// QueueLen returns how many cordons wait for a budget slot.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Done returns how many remediations completed successfully.
func (c *Controller) Done() int { return c.done }
