package scenario

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/health"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/remediate"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/telemetry"
)

// This file is the Ops half of the autonomous health loop: it assembles
// the health daemon and remediation controller at boot (startHealth),
// injects the chaos the loop is meant to survive (slow_drain_nic,
// flap_trunk), and measures the loop's reactions for the
// time_to_detect_us / time_to_recover_us assertions. docs/health.md
// describes the end-to-end cycle.

// startHealth builds and starts the health daemon, the remediation
// controller, and the node watch that mirrors API cordon state into the
// scheduler. Called from startFleet only when the health: section is
// present: the watches draw from the API server's delivery-jitter RNG,
// so a health-less scenario keeps its exact pre-health timeline.
func (r *Ops) startHealth(h HealthSpec) {
	cli := r.st.Cluster.Client
	r.counters = health.NewCounters()
	infos := make([]health.NodeInfo, 0, len(r.st.Nodes))
	for _, n := range r.st.Nodes {
		infos = append(infos, health.NodeInfo{Name: n.Name, Addr: n.Device.Addr()})
	}
	r.daemon = health.New(r.st.Eng, h.Daemon, cli, r.st.Topo, r.counters, infos)
	r.daemon.OnEvent(r.onHealthEvent)
	// Mirror API-declared cordons into the scheduler, so a node the
	// daemon cordons through the API actually stops receiving pods —
	// and an uncordon makes it eligible again.
	cli.Watch(k8s.KindNode, k8s.WatchOptions{}, func(ev k8s.Event) {
		if ev.Type != k8s.EventModified {
			return
		}
		node := ev.Object.(*k8s.Node)
		_ = r.st.Cluster.Scheduler.SetCordon(node.Meta.Name, node.Spec.Unschedulable)
	})
	r.remediator = remediate.New(r.st.Eng, cli, h.Remediate,
		remediate.Actions{Replace: r.replaceNode})
	r.remediator.OnEvent(r.onRemediateEvent)
	r.daemon.Start()
	r.logf("health: daemon polling every %s, remediation budget %d",
		time.Duration(r.daemon.Interval()), r.remediator.Budget())
}

// healthStats is the telemetry sampler's health source.
func (r *Ops) healthStats() telemetry.HealthStats {
	var hs telemetry.HealthStats
	nodes, _ := r.daemon.Snapshot()
	for _, ns := range nodes {
		switch ns.State {
		case health.NodeDegrading:
			hs.Degraded = append(hs.Degraded, ns.Name)
		case health.NodeCordonedState:
			hs.Cordoned = append(hs.Cordoned, ns.Name)
		}
	}
	hs.Remediating = r.remediator.Active()
	hs.Remediated = r.remediator.Done()
	return hs
}

// HealthSnapshot returns the daemon's node and link views; ok is false
// when the scenario runs without a health loop.
func (r *Ops) HealthSnapshot() (nodes []health.NodeSnapshot, links []health.LinkSnapshot, ok bool) {
	if r.daemon == nil {
		return nil, nil, false
	}
	nodes, links = r.daemon.Snapshot()
	return nodes, links, true
}

// RemediationStatus returns the controller's per-node runs in adoption
// order; ok is false without a health loop.
func (r *Ops) RemediationStatus() ([]remediate.Status, bool) {
	if r.remediator == nil {
		return nil, false
	}
	return r.remediator.Snapshot(), true
}

// StopHealth halts the health loop's recurring work: the daemon's poll
// tick and any still-armed fault injectors. Remediations already in
// flight keep their own timers and run to completion. RunHooked calls
// this after the event timeline so an embedding harness (the fuzzer's
// stuck detector) can drain the event queue to empty; interactive mode
// never calls it, so an operator's health loop keeps ticking. No-op
// without a health loop.
func (r *Ops) StopHealth() {
	if r.daemon != nil {
		r.daemon.Stop()
	}
	for node, inj := range r.injectors {
		inj.stop = true
		delete(r.injectors, node)
	}
}

// canonLinkKey spells a link fault key the way the health daemon does:
// kind prefix plus the endpoint indices in ascending order.
func canonLinkKey(kind string, a, b int) string {
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%s:%d-%d", kind, a, b)
}

// markFault records the injection time of a fault, keyed by node name or
// canonical link key; only the first injection per key sticks, so a
// flap train measures from its first transition.
func (r *Ops) markFault(key string) {
	if _, ok := r.faultStart[key]; !ok {
		r.faultStart[key] = r.st.Eng.Now()
	}
}

func (r *Ops) markDetect(key string) {
	start, ok := r.faultStart[key]
	if !ok {
		return
	}
	if _, seen := r.detectUs[key]; !seen {
		r.detectUs[key] = float64(r.st.Eng.Now().Sub(start)) / float64(time.Microsecond)
	}
}

func (r *Ops) markRecover(key string) {
	start, ok := r.faultStart[key]
	if !ok {
		return
	}
	if _, seen := r.recoverUs[key]; !seen {
		r.recoverUs[key] = float64(r.st.Eng.Now().Sub(start)) / float64(time.Microsecond)
	}
}

// onHealthEvent narrates daemon detections and stamps detection times.
func (r *Ops) onHealthEvent(ev health.Event) {
	switch ev.Kind {
	case health.NodeDegraded:
		r.logf("health: %s degrading (%s)", ev.Node, ev.Detail)
	case health.NodeCordoned:
		r.logf("health: cordoned %s (%s)", ev.Node, ev.Detail)
		r.markDetect(ev.Node)
	case health.NodeRecovered:
		r.logf("health: %s recovered without remediation", ev.Node)
	case health.LinkFlapping:
		r.logf("health: link %s flapping (%s)", ev.Link, ev.Detail)
		r.markDetect(ev.Link)
	case health.LinkRecovered:
		r.logf("health: link %s stable again", ev.Link)
		r.markRecover(ev.Link)
	}
}

// onRemediateEvent narrates controller phases and stamps recovery times.
func (r *Ops) onRemediateEvent(ev remediate.Event) {
	switch ev.Kind {
	case remediate.RemediationQueued:
		r.logf("remediate: queued %s", ev.Node)
	case remediate.DrainStarted:
		r.logf("remediate: draining %s", ev.Node)
	case remediate.DrainCompleted:
		r.logf("remediate: drained %s", ev.Node)
	case remediate.NodeReplaced:
		r.logf("remediate: replaced %s", ev.Node)
	case remediate.NodeUncordoned:
		r.logf("remediate: uncordoned %s, node back in service", ev.Node)
		r.markRecover(ev.Node)
	case remediate.RemediationFailed:
		r.logf("remediate: FAILED on %s (%s)", ev.Node, ev.Detail)
	}
}

// replaceNode is the remediator's replace action. The simulated
// "hardware swap" stops any fault injector aimed at the node, zeroes its
// error counters, rebaselines the daemon, and brings a downed NIC port
// back up.
func (r *Ops) replaceNode(name string) error {
	if inj := r.injectors[name]; inj != nil {
		inj.stop = true
		delete(r.injectors, name)
	}
	r.counters.Reset(name)
	r.daemon.NodeReplaced(name)
	if n, ok := r.st.NodeByName(name); ok && r.st.Topo.PortDown(n.Device.Addr()) {
		return r.st.RecoverNIC(name)
	}
	return nil
}

// errorInjector is the stop handle of one slow-drain injection; acc
// carries fractional errors between ticks so any rate stays exact.
type errorInjector struct {
	stop bool
	acc  float64
}

// slowDrainNIC starts a background error-counter injector against one
// node's NIC: the link stays up and carries traffic, but its corrected-
// error rate climbs — the classic slow-drain failure the health daemon
// exists to catch. rate is errors/s; duration bounds the injection
// (default: until the node is replaced).
func (r *Ops) slowDrainNIC(ev *Event) error {
	node, rate := ev.Target, ev.real("rate")
	var deadline sim.Time
	if _, bounded := ev.Params["duration"]; bounded {
		deadline = r.st.Eng.Now().Add(ev.dur("duration"))
	}
	if old := r.injectors[node]; old != nil {
		old.stop = true // a fresh injection replaces the previous one
	}
	inj := &errorInjector{}
	r.injectors[node] = inj
	r.markFault(node)
	const step = 10 * time.Millisecond
	var tick func()
	tick = func() {
		if inj.stop {
			return
		}
		if deadline != 0 && r.st.Eng.Now() >= deadline {
			return
		}
		inj.acc += rate * (float64(step) / float64(time.Second))
		if n := uint64(inj.acc); n > 0 {
			inj.acc -= float64(n)
			r.counters.AddErrors(node, n)
		}
		r.st.Eng.After(step, tick)
	}
	r.st.Eng.After(0, tick)
	r.logf("injecting slow-drain on %s: %g link errors/s", node, rate)
	return nil
}

// flapTrunk drives an intra-group trunk through count down/up cycles of
// the given period, ending up — the intermittent-link signature the
// daemon's flap detector latches on.
func (r *Ops) flapTrunk(ev *Event) error {
	i, j, err := r.sc.trunk(ev)
	if err != nil {
		return err
	}
	period, count := ev.dur("period"), ev.num("count")
	r.markFault(canonLinkKey("trunk", i, j))
	half := period / 2
	for c := 0; c < count; c++ {
		at := time.Duration(c) * period
		r.st.Eng.After(at, func() { _ = r.st.FailTrunk(i, j) })
		r.st.Eng.After(at+half, func() { _ = r.st.RecoverTrunk(i, j) })
	}
	r.logf("flapping trunk %d-%d: %d cycle(s) of %s", i, j, count, period)
	return nil
}

// remediate hands a node to the remediation controller by operator
// decree (the ctl `remediate` command and the remediate event).
func (r *Ops) remediate(ev *Event) error {
	r.logf("operator remediation of %s", ev.Target)
	return r.remediator.Remediate(ev.Target)
}

// waitRemediated blocks until at least count remediations completed and
// the controller has fully quiesced (nothing active, nothing queued, and
// the scheduler's cordon view caught up with the API). count: 0 waits
// for quiescence alone, however many remediations that takes.
func (r *Ops) waitRemediated(ev *Event) error {
	count, timeout := ev.num("count"), ev.dur("timeout")
	ok := r.st.Eng.RunUntilDone(func() bool {
		if r.remediator.Done() < count || r.remediator.Active() > 0 || r.remediator.QueueLen() > 0 {
			return false
		}
		// A finished run's uncordon must actually have landed: the API
		// write commits after request latency and reaches the scheduler
		// through the jittered node watch. "Quiet" includes both having
		// caught up, so a nodes_cordoned assertion right after this
		// event never races them. Failed runs stay cordoned by design.
		for _, s := range r.remediator.Snapshot() {
			if s.Phase != remediate.PhaseDone {
				continue
			}
			api := false
			if obj, found := r.st.Cluster.Client.Get(k8s.KindNode, "", s.Node); found {
				api = obj.(*k8s.Node).Spec.Unschedulable
			}
			if api || r.st.Cluster.Scheduler.Cordoned(s.Node) {
				return false
			}
		}
		return true
	}, r.st.Eng.Now().Add(timeout))
	if !ok {
		return fmt.Errorf("timed out after %s: %d/%d remediations done, %d active, %d queued",
			timeout, r.remediator.Done(), count, r.remediator.Active(), r.remediator.QueueLen())
	}
	r.logf("%d remediation(s) complete, controller quiet", r.remediator.Done())
	return nil
}

// gangPreempted reports whether any running pod of the job sits on a
// cordoned node — the signal that tells a migratable run to vacate.
func (r *Ops) gangPreempted(tenant, job string) bool {
	bad := false
	r.eachPod(tenant, job, func(pod *k8s.Pod) bool {
		if pod.Status.Phase == k8s.PodRunning && r.st.Cluster.Scheduler.Cordoned(pod.Spec.NodeName) {
			bad = true
			return false
		}
		return true
	})
	return bad
}

// gangReady reports whether the job's gang is whole again: every rank
// Running, none on a cordoned node.
func (r *Ops) gangReady(tenant, job string, ranks int) bool {
	running := 0
	clean := true
	r.eachPod(tenant, job, func(pod *k8s.Pod) bool {
		if pod.Status.Phase != k8s.PodRunning {
			return true
		}
		if r.st.Cluster.Scheduler.Cordoned(pod.Spec.NodeName) {
			clean = false
			return false
		}
		running++
		return true
	})
	return clean && running >= ranks
}
