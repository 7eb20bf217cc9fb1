package k8s

import (
	"errors"
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// bindLatency is per-pod scheduling plus binding cost, matching a lightly
// loaded k3s scheduler.
const bindLatency = 12 * time.Millisecond

// SchedulerConfig tunes the binding pipeline.
type SchedulerConfig struct {
	// Jitter fraction on bindLatency.
	Jitter float64
	// NodeGroups maps node name → fabric topology group (dragonfly
	// group). When set, placement prefers co-locating a job's pods
	// within the group that already hosts most of them; an empty map
	// means one flat group and pure least-loaded spread.
	NodeGroups map[string]int
	// NodeCapacity is the soft per-node pod budget behind cross-group
	// spill: nodes at or over it are avoided while any node below it
	// exists, even at the cost of leaving the preferred group. 0
	// disables the pressure check.
	NodeCapacity int
}

// DefaultSchedulerConfig returns the calibrated jitter and no topology.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{Jitter: 0.4}
}

// Scheduler assigns pending pods to nodes. Within one topology group it
// implements the paper's "topology spread constraints" usage by always
// spreading: the node with the fewest non-terminal pods wins, so the two
// OSU ranks land on the two different nodes exactly as the paper
// configures via Volcano. Across dragonfly groups (SchedulerConfig.
// NodeGroups) it instead co-locates: a job's pods prefer the group that
// already hosts most of them, keeping their RDMA traffic off the global
// links; when every node of the preferred group reaches NodeCapacity the
// job spills to the next group.
//
// Placement reads no cluster-wide state: per-node pod counts and per-job
// group counts are maintained incrementally from the shared pod informer,
// and bindings not yet reflected in the cache are carried in an assume
// cache (kube-scheduler's "assumed pods"), so picking a node is O(nodes)
// regardless of fleet size — the seed implementation re-listed and
// deep-copied every pod per placement.
type Scheduler struct {
	cli   *Client
	cfg   SchedulerConfig
	nodes []string
	queue fifo[string] // pod keys awaiting binding
	busy  bool
	// current is the key the binding in flight (busy) is for; binds
	// recycles the records the binding Updates complete through.
	current string
	binds   sim.FreeList[bindWrite]
	// counts is the committed non-terminal pod count per node, from the
	// informer's view; bound remembers which node each pod is counted on.
	counts map[string]int
	bound  map[string]string
	// assumed carries this scheduler's own bindings until the informer
	// confirms them, so back-to-back placements inside the watch-delivery
	// window still spread (and still co-locate).
	assumed map[string]assumedBinding
	// jobGroup counts each job's committed pods per topology group, the
	// signal behind group co-location. Keyed by PodJobIndex's value.
	jobGroup map[IndexKey]map[int]int
	// cordoned marks nodes an operator took out of scheduling (kubectl
	// cordon); running pods stay, new placements skip the node.
	cordoned map[string]bool
}

// assumedBinding is one not-yet-confirmed placement: the node it went to
// and the job it counts toward.
type assumedBinding struct {
	node string
	job  IndexKey
}

// NewScheduler creates and starts a scheduler over the given node names.
func NewScheduler(cli *Client, cfg SchedulerConfig, nodes []string) *Scheduler {
	s := &Scheduler{
		cli:      cli,
		cfg:      cfg,
		nodes:    append([]string(nil), nodes...),
		counts:   make(map[string]int),
		bound:    make(map[string]string),
		assumed:  make(map[string]assumedBinding),
		jobGroup: make(map[IndexKey]map[int]int),
		cordoned: make(map[string]bool),
	}
	cli.Watch(KindPod, WatchOptions{}, s.onPod)
	return s
}

// SetCordon marks a node unschedulable (true) or schedulable again
// (false). Pods already bound there are untouched; pending pods simply
// stop considering the node. Cordoning every node parks the queue: pods
// retry until a node is uncordoned.
func (s *Scheduler) SetCordon(node string, cordoned bool) error {
	for _, n := range s.nodes {
		if n == node {
			if cordoned {
				s.cordoned[node] = true
			} else {
				delete(s.cordoned, node)
			}
			return nil
		}
	}
	return fmt.Errorf("k8s: cordon: unknown node %q", node)
}

// Cordoned reports whether the node is currently cordoned.
func (s *Scheduler) Cordoned(node string) bool { return s.cordoned[node] }

// onPod folds one pod event into the per-node counts and enqueues fresh
// pending pods.
func (s *Scheduler) onPod(ev Event) {
	pod := ev.Object.(*Pod)
	key := pod.Meta.Key()

	effective := ""
	if ev.Type != EventDeleted && pod.Spec.NodeName != "" {
		switch pod.Status.Phase {
		case PodSucceeded, PodFailed:
		default:
			effective = pod.Spec.NodeName
		}
	}
	if old := s.bound[key]; old != effective {
		if old != "" {
			s.counts[old]--
			s.adjustJobGroup(pod, old, -1)
		}
		if effective != "" {
			s.counts[effective]++
			s.adjustJobGroup(pod, effective, +1)
		}
		if effective == "" {
			delete(s.bound, key)
		} else {
			s.bound[key] = effective
		}
	}
	// The informer now reflects the binding (or the pod is gone): the
	// assumption, if any, has served its purpose.
	if effective != "" || ev.Type == EventDeleted {
		delete(s.assumed, key)
	}

	if ev.Type == EventAdded && pod.Spec.NodeName == "" && pod.Status.Phase == PodPending {
		s.enqueue(key)
	}
}

// groupOf returns the topology group of a node; unmapped nodes share
// group 0 (one flat group when NodeGroups is empty).
func (s *Scheduler) groupOf(node string) int { return s.cfg.NodeGroups[node] }

// adjustJobGroup folds a committed binding change into the per-job group
// counts. Skipped entirely without a topology: the counts would all land
// in group 0 and never influence scoring.
func (s *Scheduler) adjustJobGroup(pod *Pod, node string, delta int) {
	if len(s.cfg.NodeGroups) == 0 {
		return
	}
	job := PodJobIndex(pod) // zero for pods outside any job: no co-location signal
	if job == (IndexKey{}) {
		return
	}
	g := s.groupOf(node)
	m := s.jobGroup[job]
	if m == nil {
		if delta < 0 {
			return
		}
		m = make(map[int]int)
		s.jobGroup[job] = m
	}
	m[g] += delta
	if m[g] <= 0 {
		delete(m, g)
	}
	if len(m) == 0 {
		delete(s.jobGroup, job)
	}
}

func (s *Scheduler) enqueue(key string) {
	s.queue.push(key)
	s.pump()
}

// pump processes the binding queue one pod at a time, mirroring the
// single-threaded scheduling loop of kube-scheduler.
func (s *Scheduler) pump() {
	if s.busy || s.queue.len() == 0 {
		return
	}
	s.busy = true
	s.current = s.queue.pop()
	eng := s.cli.Engine()
	eng.AfterCall(eng.Jitter(bindLatency, s.cfg.Jitter), bindCall, s)
}

// bindCall is pump's event body; arg is the scheduler.
func bindCall(arg any) {
	s := arg.(*Scheduler)
	key := s.current
	s.current = ""
	s.bind(key)
	s.busy = false
	s.pump()
}

func (s *Scheduler) bind(key string) {
	ns, name := SplitKey(key)
	obj, ok := s.cli.Get(KindPod, ns, name)
	if !ok {
		return // deleted while queued
	}
	pod := obj.(*Pod)
	if pod.Spec.NodeName != "" || pod.Meta.Deleting {
		return
	}
	node := s.pickNode(pod)
	if node == "" {
		// No nodes: retry later.
		s.cli.Engine().After(500*time.Millisecond, func() { s.enqueue(key) })
		return
	}
	pod = pod.Clone().(*Pod) // the read is the store's own object; Update keeps this copy
	pod.Spec.NodeName = node
	pod.Status.Phase = PodScheduled
	s.assumed[key] = assumedBinding{node: node, job: PodJobIndex(pod)}
	w := s.binds.Get()
	w.s, w.key = s, key
	s.cli.Update(pod, w)
}

// bindWrite is one binding Update in flight, and hears its outcome: the pod
// key it binds.
type bindWrite struct {
	s   *Scheduler
	key string
}

// Wrote recycles the record, then handles a binding that did not commit:
// the pod changed or vanished under us, so the assumption goes and, on
// conflict, a fresh read decides again. When the apiserver stayed
// unavailable past the retry budget the pod is requeued too — the
// scheduler keeps placing from its cache and the next attempt rebinds once
// writes go through again.
func (w *bindWrite) Wrote(err error) {
	s, key := w.s, w.key
	*w = bindWrite{}
	s.binds.Put(w)
	if err == nil {
		return
	}
	delete(s.assumed, key)
	if errors.Is(err, ErrConflict) || errors.Is(err, ErrRetriesExhausted) {
		s.enqueue(key)
	}
}

// pickNode scores every node for the pod and returns the winner. The
// scoring order is:
//
//  1. pressure — nodes below NodeCapacity beat nodes at or over it
//     (ignored when every node is full, or NodeCapacity is 0);
//  2. group affinity — nodes whose topology group already hosts more of
//     the pod's job win (the co-location pass; all ties without a
//     multi-group topology or a job label);
//  3. load — fewest non-terminal pods, counting informer-confirmed pods
//     and not-yet-confirmed assumed bindings;
//  4. declaration order — the stable tiebreak.
//
// Everything reads incrementally maintained state, so a placement is
// O(nodes) (+ O(assumed), which is bounded by the watch-delivery window).
func (s *Scheduler) pickNode(pod *Pod) string {
	if len(s.nodes) == 0 {
		return ""
	}
	var assumedCounts map[string]int
	if len(s.assumed) > 0 {
		assumedCounts = make(map[string]int, len(s.assumed))
		for _, a := range s.assumed {
			assumedCounts[a.node]++
		}
	}
	load := func(n string) int { return s.counts[n] + assumedCounts[n] }

	// Group affinity: the pod's job's pods per group, committed plus
	// assumed. Only meaningful with a topology and a job identity.
	var affinity map[int]int
	if len(s.cfg.NodeGroups) > 0 {
		if job := PodJobIndex(pod); job != (IndexKey{}) {
			affinity = make(map[int]int, len(s.jobGroup[job])+1)
			for g, n := range s.jobGroup[job] {
				affinity[g] = n
			}
			for _, a := range s.assumed {
				if a.job == job {
					affinity[s.groupOf(a.node)]++
				}
			}
		}
	}

	type score struct {
		underCap bool
		affinity int
		load     int
	}
	better := func(a, b score) bool {
		if a.underCap != b.underCap {
			return a.underCap
		}
		if a.affinity != b.affinity {
			return a.affinity > b.affinity
		}
		return a.load < b.load
	}
	scoreOf := func(n string) score {
		l := load(n)
		return score{
			underCap: s.cfg.NodeCapacity <= 0 || l < s.cfg.NodeCapacity,
			affinity: affinity[s.groupOf(n)],
			load:     l,
		}
	}
	var best string
	var bestScore score
	for _, n := range s.nodes {
		if s.cordoned[n] {
			continue
		}
		if sc := scoreOf(n); best == "" || better(sc, bestScore) {
			best, bestScore = n, sc
		}
	}
	return best
}
