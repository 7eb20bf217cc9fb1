// Package health is the node-health daemon of the autonomous
// health + remediation loop: it watches per-NIC error counters and
// per-link state on the virtual clock, detects degrading nodes
// (threshold + EWMA over error rates, with port-down as a hard fault)
// and flapping links (EWMA over state transitions), and cordons
// degrading nodes through the typed k8s.Client exactly the way a real
// node-problem-detector would — by marking Node.Spec.Unschedulable and
// annotating the reason, leaving the fix to internal/remediate.
//
// The daemon is strictly opt-in: nothing in the stack constructs one
// unless a scenario enables its `health:` section (or an operator
// attaches one interactively), so runs without it draw exactly the
// same random-number stream as before the package existed.
package health

import (
	"fmt"
	"sort"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// AnnotationReason is set on a Node the daemon cordons; its value names
// the detection that tripped. internal/remediate only adopts nodes
// carrying this annotation, so operator cordons stay manual.
const AnnotationReason = "health.shs/reason"

// Counters is the per-node NIC error-counter registry the daemon polls.
// The simulated CXI device does not model CRC/retry errors natively, so
// fault injectors (the scenario `slow_drain_nic` event, the fuzzer)
// account errors here and the daemon observes deltas per tick — the
// same contract as reading a real NIC's error counters from sysfs.
type Counters struct {
	errors map[string]uint64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{errors: make(map[string]uint64)} }

// AddErrors accumulates n errors against a node's NIC.
func (c *Counters) AddErrors(node string, n uint64) { c.errors[node] += n }

// Errors returns the cumulative error count for a node.
func (c *Counters) Errors(node string) uint64 { return c.errors[node] }

// Reset zeroes a node's counter (hardware replacement installs a fresh
// NIC). The daemon rebaselines on the next tick.
func (c *Counters) Reset(node string) { delete(c.errors, node) }

// ewmaAlpha weights the newest tick's rate sample in every EWMA the daemon
// keeps (0 < alpha <= 1).
const ewmaAlpha = 0.5

// Config tunes detection. Rates are per second of virtual time. A zero
// field takes its DefaultConfig value.
type Config struct {
	// Interval is the poll period (the daemon's tick).
	Interval sim.Duration
	// ErrorRateThreshold is the EWMA error rate (errors/s) above which a
	// node counts as degrading on that tick.
	ErrorRateThreshold float64
	// FlapThreshold is the EWMA link state-transition rate
	// (transitions/s) above which a link is declared flapping. At the
	// default interval a single clean failure peaks below it and decays;
	// a second transition within a few ticks crosses it.
	FlapThreshold float64
	// DegradeTicks is how many consecutive over-threshold ticks cordon a
	// node; >1 keeps one-tick bursts from triggering remediation.
	DegradeTicks int
	// StableTicks is how many consecutive quiet ticks (link up, no
	// transitions, EWMA back under threshold) clear a flapping link.
	StableTicks int
}

// DefaultConfig returns detection tuning that flags a sustained
// slow-drain NIC within a few ticks and a flapping trunk on its second
// transition, while a clean single failure never trips the flap
// detector.
func DefaultConfig() Config {
	return Config{
		Interval:           100 * time.Millisecond,
		ErrorRateThreshold: 50,
		FlapThreshold:      6,
		DegradeTicks:       2,
		StableTicks:        5,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	def := DefaultConfig()
	if out.Interval <= 0 {
		out.Interval = def.Interval
	}
	if out.ErrorRateThreshold <= 0 {
		out.ErrorRateThreshold = def.ErrorRateThreshold
	}
	if out.FlapThreshold <= 0 {
		out.FlapThreshold = def.FlapThreshold
	}
	if out.DegradeTicks <= 0 {
		out.DegradeTicks = def.DegradeTicks
	}
	if out.StableTicks <= 0 {
		out.StableTicks = def.StableTicks
	}
	return out
}

// NodeState is the daemon's view of one node.
type NodeState int

// Node states.
const (
	NodeHealthy NodeState = iota
	NodeDegrading
	NodeCordonedState
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeDegrading:
		return "degrading"
	case NodeCordonedState:
		return "cordoned"
	default:
		return "healthy"
	}
}

// EventKind classifies daemon events.
type EventKind int

// Event kinds.
const (
	// NodeDegraded fires on the first over-threshold tick.
	NodeDegraded EventKind = iota
	// NodeCordoned fires once the cordon write is issued.
	NodeCordoned
	// NodeRecovered fires when a degrading (not yet cordoned) node goes
	// quiet again.
	NodeRecovered
	// LinkFlapping fires when a link's transition EWMA crosses the
	// threshold; latched until LinkRecovered.
	LinkFlapping
	// LinkRecovered fires after StableTicks quiet ticks on a latched link.
	LinkRecovered
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case NodeDegraded:
		return "node-degraded"
	case NodeCordoned:
		return "node-cordoned"
	case NodeRecovered:
		return "node-recovered"
	case LinkFlapping:
		return "link-flapping"
	case LinkRecovered:
		return "link-recovered"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one detection the daemon emits through OnEvent.
type Event struct {
	Time sim.Time
	Kind EventKind
	// Node is set for node events, Link ("trunk:i-j" / "global:i-j") for
	// link events.
	Node   string
	Link   string
	Detail string
}

// NodeInfo names one monitored node and its fabric address.
type NodeInfo struct {
	Name string
	Addr fabric.Addr
}

type nodeState struct {
	info       NodeInfo
	state      NodeState
	ewma       float64
	lastErrors uint64
	overTicks  int
}

type linkState struct {
	key         string
	down        bool
	ewma        float64
	flapping    bool
	stableTicks int
}

// Daemon polls node and link health every Interval of virtual time.
type Daemon struct {
	eng      *sim.Engine
	cfg      Config
	cli      *k8s.Client
	topo     *fabric.Topology
	counters *Counters
	nodes    []*nodeState
	byName   map[string]*nodeState
	links    map[string]*linkState
	linkKeys []string
	onEvent  func(Event)
	tick     sim.Ticker
}

// New builds a daemon over the given nodes. It does not start ticking
// until Start.
func New(eng *sim.Engine, cfg Config, cli *k8s.Client, topo *fabric.Topology, counters *Counters, nodes []NodeInfo) *Daemon {
	d := &Daemon{
		eng:      eng,
		cfg:      cfg.withDefaults(),
		cli:      cli,
		topo:     topo,
		counters: counters,
		byName:   make(map[string]*nodeState, len(nodes)),
		links:    make(map[string]*linkState),
	}
	for _, n := range nodes {
		st := &nodeState{info: n, lastErrors: counters.Errors(n.Name)}
		d.nodes = append(d.nodes, st)
		d.byName[n.Name] = st
	}
	return d
}

// OnEvent registers the single event sink (Ops, telemetry bridge).
func (d *Daemon) OnEvent(fn func(Event)) { d.onEvent = fn }

// Interval returns the effective poll period.
func (d *Daemon) Interval() sim.Duration { return d.cfg.Interval }

// Start begins polling every Interval on the virtual clock.
func (d *Daemon) Start() { d.tick.Start(d.eng, d.cfg.Interval, d.poll) }

// Stop ends the polling.
func (d *Daemon) Stop() { d.tick.Stop() }

func (d *Daemon) emit(kind EventKind, node, link, detail string) {
	if d.onEvent == nil {
		return
	}
	d.onEvent(Event{Time: d.eng.Now(), Kind: kind, Node: node, Link: link, Detail: detail})
}

func (d *Daemon) poll() {
	secs := float64(d.cfg.Interval) / float64(time.Second)
	for _, st := range d.nodes {
		d.pollNode(st, secs)
	}
	d.pollLinks(secs)
}

func (d *Daemon) pollNode(st *nodeState, secs float64) {
	if st.state == NodeCordonedState {
		// Hands off until remediation replaces the hardware and calls
		// NodeReplaced; polling a cordoned node would double-report.
		return
	}
	cur := d.counters.Errors(st.info.Name)
	var delta uint64
	if cur >= st.lastErrors {
		delta = cur - st.lastErrors
	} // else: counter was reset underneath us — rebaseline silently
	st.lastErrors = cur
	rate := float64(delta) / secs
	st.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*st.ewma

	portDown := d.topo.PortDown(st.info.Addr)
	over := st.ewma > d.cfg.ErrorRateThreshold || portDown
	if !over {
		st.overTicks = 0
		if st.state == NodeDegrading && st.ewma < d.cfg.ErrorRateThreshold/2 {
			st.state = NodeHealthy
			d.emit(NodeRecovered, st.info.Name, "", "error rate back under threshold")
		}
		return
	}
	st.overTicks++
	if st.state == NodeHealthy {
		st.state = NodeDegrading
		d.emit(NodeDegraded, st.info.Name, "", d.overDetail(st, portDown))
	}
	if st.overTicks >= d.cfg.DegradeTicks {
		d.cordon(st, d.overDetail(st, portDown))
	}
}

func (d *Daemon) overDetail(st *nodeState, portDown bool) string {
	if portDown {
		return "nic port down"
	}
	return fmt.Sprintf("error rate %.0f/s over %.0f/s", st.ewma, d.cfg.ErrorRateThreshold)
}

func (d *Daemon) cordon(st *nodeState, reason string) {
	st.state = NodeCordonedState
	name := st.info.Name
	d.cli.Patch(k8s.KindNode, "", name, k8s.MutateFunc(func(obj k8s.Object) bool {
		n := obj.(*k8s.Node)
		if n.Spec.Unschedulable {
			return false
		}
		n.Spec.Unschedulable = true
		n.Meta.SetAnnotation(AnnotationReason, reason)
		return true
	}))
	d.emit(NodeCordoned, name, "", reason)
}

// pollLinks folds both directions of each trunk into one canonical key
// (SetTrunkDown flips both together) and runs EWMA flap detection over
// state transitions.
func (d *Daemon) pollLinks(secs float64) {
	for _, li := range d.topo.Links() {
		if li.ID.From > li.ID.To {
			continue
		}
		key := linkKey(li)
		st, ok := d.links[key]
		if !ok {
			st = &linkState{key: key, down: li.Down}
			d.links[key] = st
			d.linkKeys = append(d.linkKeys, key)
			sort.Strings(d.linkKeys)
		}
		transitions := 0
		if li.Down != st.down {
			transitions = 1
			st.down = li.Down
		}
		rate := float64(transitions) / secs
		st.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*st.ewma
		if !st.flapping && st.ewma > d.cfg.FlapThreshold {
			st.flapping = true
			st.stableTicks = 0
			d.emit(LinkFlapping, "", key, fmt.Sprintf("transition rate %.1f/s over %.1f/s", st.ewma, d.cfg.FlapThreshold))
		}
		if st.flapping {
			if transitions == 0 && !li.Down && st.ewma < d.cfg.FlapThreshold {
				st.stableTicks++
				if st.stableTicks >= d.cfg.StableTicks {
					st.flapping = false
					st.stableTicks = 0
					d.emit(LinkRecovered, "", key, "stable")
				}
			} else {
				st.stableTicks = 0
			}
		}
	}
}

func linkKey(li fabric.LinkInfo) string {
	kind := "trunk"
	if li.Kind == fabric.LinkGlobal {
		kind = "global"
	}
	return fmt.Sprintf("%s:%d-%d", kind, li.ID.From, li.ID.To)
}

// NodeReplaced rebaselines a node after remediation swapped its
// hardware: state back to healthy, EWMA cleared, counter baseline
// re-read. Safe to call for unknown nodes.
func (d *Daemon) NodeReplaced(name string) {
	st, ok := d.byName[name]
	if !ok {
		return
	}
	st.state = NodeHealthy
	st.ewma = 0
	st.overTicks = 0
	st.lastErrors = d.counters.Errors(name)
}

// NodeSnapshot is one node's health for operators and telemetry.
type NodeSnapshot struct {
	Name      string
	State     NodeState
	ErrorRate float64 // current EWMA, errors/s
}

// LinkSnapshot is one link's flap state.
type LinkSnapshot struct {
	Key      string
	Down     bool
	Flapping bool
}

// Snapshot returns deterministic per-node (declaration order) and
// per-link (sorted key) views.
func (d *Daemon) Snapshot() ([]NodeSnapshot, []LinkSnapshot) {
	ns := make([]NodeSnapshot, 0, len(d.nodes))
	for _, st := range d.nodes {
		ns = append(ns, NodeSnapshot{Name: st.info.Name, State: st.state, ErrorRate: st.ewma})
	}
	ls := make([]LinkSnapshot, 0, len(d.linkKeys))
	for _, k := range d.linkKeys {
		st := d.links[k]
		ls = append(ls, LinkSnapshot{Key: st.key, Down: st.down, Flapping: st.flapping})
	}
	return ns, ls
}
