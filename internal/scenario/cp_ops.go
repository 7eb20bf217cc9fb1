package scenario

import (
	"sort"
	"strings"

	"github.com/caps-sim/shs-k8s/internal/k8s"
)

// This file is the Ops half of the control-plane fault layer: it arms the
// API server's availability model on first use (armCP), injects outages,
// degraded modes and watch-stream breaks, and probes the client's retry
// and relist counters for the apiserver_retries / watch_relists /
// cp_converged assertions. docs/controlplane.md describes the fault model.

// cpWatchKinds maps the break_watch event's kind parameter onto API object
// kinds. Only the built-in kinds are addressable; custom resources (VNIs)
// ride the same informers but are named by their registered kind at
// runtime, which scenario files cannot reference portably.
var cpWatchKinds = map[string]k8s.Kind{
	"pods":       k8s.KindPod,
	"jobs":       k8s.KindJob,
	"nodes":      k8s.KindNode,
	"namespaces": k8s.KindNamespace,
}

// cpWatchKindNames lists the valid break_watch kinds for messages and help.
func cpWatchKindNames() string {
	names := make([]string, 0, len(cpWatchKinds))
	for n := range cpWatchKinds {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// armCP arms the fault layer on first use (k8s.Client.ArmFaults) and says
// so in the transcript. Control-plane events self-arm — a scenario without
// them never reaches this, so its timeline draws no fault-layer RNG and
// stays byte-identical to a build without the subsystem.
func (r *Ops) armCP() {
	if r.st.Cluster.Client.FaultsArmed() {
		return
	}
	r.st.Cluster.Client.ArmFaults()
	r.logf("control-plane fault layer armed: client deadlines on, gap prober running")
}

// failAPIServer takes the API server down: every write fails with
// ErrUnavailable until recovery; reads keep serving (the model treats the
// watch cache as HA).
func (r *Ops) failAPIServer(*Event) error {
	r.armCP()
	r.st.Cluster.Client.API().FailAPIServer()
	r.logf("apiserver DOWN: writes fail until recovery, consumers retry with backoff")
	return nil
}

// degradeAPIServer puts the API server in degraded mode: request latency
// is multiplied by latency_factor and each write fails with probability
// error_prob.
func (r *Ops) degradeAPIServer(ev *Event) error {
	r.armCP()
	lat, errProb := ev.real("latency_factor"), ev.real("error_prob")
	r.st.Cluster.Client.API().DegradeAPIServer(lat, errProb)
	r.logf("apiserver degraded: %gx request latency, %g%% of writes error", lat, errProb*100)
	return nil
}

// recoverAPIServer restores full availability. Queued retries start
// landing on their next backoff tick; stale caches are repaired by the
// prober's next relist.
func (r *Ops) recoverAPIServer(*Event) error {
	r.armCP()
	r.st.Cluster.Client.API().RecoverAPIServer()
	r.logf("apiserver recovered")
	return nil
}

// breakWatch silently breaks every watch stream of one kind: watchers stop
// receiving events (no error is surfaced, as with a half-dead connection)
// until the client's gap prober notices the informer falling behind and
// relists.
func (r *Ops) breakWatch(ev *Event) error {
	r.armCP()
	n := r.st.Cluster.Client.API().BreakWatch(cpWatchKinds[ev.str("kind")])
	r.logf("broke %d %s watch stream(s): caches drift silently until relisted", n, ev.str("kind"))
	return nil
}
