package fuzz

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// Violation is one broken invariant. Name is a stable identifier the
// shrinker matches on (a reduction is kept only if the same-named violation
// persists); Detail is the human-readable diagnosis.
type Violation struct {
	Name   string
	Detail string
}

// String renders the violation for reports and reproducer headers.
func (v Violation) String() string { return v.Name + ": " + v.Detail }

// Violation names.
const (
	// VioSimIntegrity: the event arena broke its structural invariants
	// (leaked slots, heap order, back-pointers, or a queued event in the
	// past — the monotonic-clock check).
	VioSimIntegrity = "sim_integrity"
	// VioRouting: the epoch-cached route table diverged from fresh
	// uncached resolution (the differential routing oracle).
	VioRouting = "routing_oracle"
	// VioConservation: injected packets or bytes were lost or duplicated
	// somewhere in the fabric (checked per switch and fabric-wide after
	// the event queue drained).
	VioConservation = "conservation"
	// VioStuck: the event queue did not drain within the step budget —
	// something reschedules itself forever or a collective never
	// completes.
	VioStuck = "stuck"
	// VioRunError: the scenario engine reported an execution error on a
	// spec the generator guarantees is executable.
	VioRunError = "run_error"
	// VioAssertion: a generated assertion failed; the generator only
	// emits assertions its construction guarantees.
	VioAssertion = "assertion_failed"
	// VioNondeterminism: two runs of the same spec at the same seed
	// produced different fingerprints.
	VioNondeterminism = "nondeterminism"
	// VioRemediation: the autonomous health loop failed to quiesce —
	// after the event queue drained (every in-flight remediation ran
	// out), a node was still cordoned in the scheduler or still marked
	// Unschedulable in the API. Only checked on specs with a health:
	// section; without one, cordons are manual and may legitimately
	// outlive the run.
	VioRemediation = "remediation_quiesce"
	// VioConvergence: with the event queue drained (every write landed,
	// every retry resolved, every relist replayed), an informer cache
	// still disagreed with the API server's store — a lost write or a
	// watch delivery that never arrived. Checked on every spec: fault-free
	// runs converge trivially, and the generator recovers every injected
	// control-plane fault before the run ends.
	VioConvergence = "eventual_convergence"
	// VioImmutability: an API object changed after the apiserver committed
	// it. Committed objects are shared by the store, every informer cache
	// and every reader, so a handler, a Get or List caller, or a Patch
	// mutator writing through a shared map corrupts them all at once. The
	// k8s.CommitRecorder armed on every spec hashes each delivered object
	// and re-hashes it after the drain.
	VioImmutability = "write_after_commit"
)

// checkSim wraps the engine's structural self-check (event-arena handle
// accounting, heap order, monotonic clock) into a Violation.
func checkSim(st *stack.Stack) *Violation {
	if err := st.Eng.CheckIntegrity(); err != nil {
		return &Violation{Name: VioSimIntegrity, Detail: err.Error()}
	}
	return nil
}

// checkRouting runs the differential routing oracle: every cache entry the
// hot path would serve is compared against a from-scratch minimal-path
// resolution.
func checkRouting(st *stack.Stack) *Violation {
	if err := st.Topo.VerifyRoutes(); err != nil {
		return &Violation{Name: VioRouting, Detail: err.Error()}
	}
	return nil
}

// checkRemediation verifies the health loop quiesced: with the event
// queue drained, no node may remain cordoned — every node the daemon (or
// an operator remediate) cordoned must have been drained, replaced and
// uncordoned, and the scheduler's view must agree with the API's
// Node.Spec.Unschedulable. A disagreement means the watch that mirrors
// API cordons into the scheduler lost an update.
func checkRemediation(st *stack.Stack) *Violation {
	for _, n := range st.Nodes {
		sched := st.Cluster.Scheduler.Cordoned(n.Name)
		api := false
		if obj, ok := st.Cluster.Client.Get(k8s.KindNode, "", n.Name); ok {
			api = obj.(*k8s.Node).Spec.Unschedulable
		}
		switch {
		case sched && api:
			return &Violation{Name: VioRemediation, Detail: fmt.Sprintf(
				"node %s still cordoned after the health loop quiesced", n.Name)}
		case sched != api:
			return &Violation{Name: VioRemediation, Detail: fmt.Sprintf(
				"cordon state diverged on %s: scheduler=%v api=%v", n.Name, sched, api)}
		}
	}
	return nil
}

// checkConvergence verifies eventual convergence of the control plane:
// once the event queue has drained, every informer cache must hold exactly
// the API server's store — same keys, same resource versions, the same
// objects. A mismatch means a write was lost or a
// watch delivery vanished without the gap prober noticing. Must only run
// on a drained queue; in-flight deliveries are legitimate divergence.
func checkConvergence(st *stack.Stack) *Violation {
	if err := st.Cluster.Client.VerifyCaches(); err != nil {
		return &Violation{Name: VioConvergence, Detail: err.Error()}
	}
	return nil
}

// checkImmutability verifies that nothing wrote to a committed object
// since the recorder was armed (RecordCommits returns the armed one).
func checkImmutability(st *stack.Stack) *Violation {
	if err := st.Cluster.Client.RecordCommits().Verify(); err != nil {
		return &Violation{Name: VioImmutability, Detail: err.Error()}
	}
	return nil
}

// checkConservation verifies that no packet or byte was lost or duplicated:
// with the event queue drained, everything injected at a host port was
// either delivered at a host port or dropped with a counted reason —
// fabric-wide, and as a flow balance at every switch (host injections plus
// trunk arrivals equal deliveries plus trunk departures plus drops). It
// must only run on a drained queue; packets still in flight are neither
// delivered nor dropped yet.
func checkConservation(st *stack.Stack) *Violation {
	topo, total := st.Topo, st.Counters(stack.Fabric).Fabric
	if total.Injected != total.Forwarded+total.DropTotal() {
		return &Violation{Name: VioConservation, Detail: fmt.Sprintf(
			"fabric-wide packet leak: injected %d != delivered %d + dropped %d",
			total.Injected, total.Forwarded, total.DropTotal())}
	}
	if total.InjectedBytes != total.ForwardedBytes+total.DroppedBytes {
		return &Violation{Name: VioConservation, Detail: fmt.Sprintf(
			"fabric-wide byte leak: injected %d != delivered %d + dropped %d",
			total.InjectedBytes, total.ForwardedBytes, total.DroppedBytes)}
	}

	// Per-switch flow balance over the trunk links.
	n := len(topo.Switches())
	inPkts := make([]uint64, n)
	inBytes := make([]uint64, n)
	outPkts := make([]uint64, n)
	outBytes := make([]uint64, n)
	for _, l := range topo.Links() {
		outPkts[l.ID.From] += l.Stats.Forwarded
		outBytes[l.ID.From] += l.Stats.Bytes
		inPkts[l.ID.To] += l.Stats.Forwarded
		inBytes[l.ID.To] += l.Stats.Bytes
	}
	for i, sw := range topo.Switches() {
		s := sw.Stats()
		if s.Injected+inPkts[i] != s.Forwarded+outPkts[i]+s.DropTotal() {
			return &Violation{Name: VioConservation, Detail: fmt.Sprintf(
				"switch %d packet flow imbalance: injected %d + trunk-in %d != delivered %d + trunk-out %d + dropped %d",
				i, s.Injected, inPkts[i], s.Forwarded, outPkts[i], s.DropTotal())}
		}
		if s.InjectedBytes+inBytes[i] != s.ForwardedBytes+outBytes[i]+s.DroppedBytes {
			return &Violation{Name: VioConservation, Detail: fmt.Sprintf(
				"switch %d byte flow imbalance: injected %d + trunk-in %d != delivered %d + trunk-out %d + dropped %d",
				i, s.InjectedBytes, inBytes[i], s.ForwardedBytes, outBytes[i], s.DroppedBytes)}
		}
	}
	return nil
}
