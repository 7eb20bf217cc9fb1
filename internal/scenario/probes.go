package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// targetKind is what an assertion's target must name.
type targetKind uint8

const (
	noTarget     targetKind = iota
	tenantTarget            // a fleet tenant, or nothing for all of them
	reasonTarget            // a fabric drop reason
	statTarget              // a latency statistic (latencyStats)
	runTarget               // a traffic run: a run_traffic event's as/traffic name
	pairTarget              // two traffic runs, "a/b"
	faultTarget             // a fleet node or a link key, as fault injection stamps them
)

// probe declares one assertion type, once: checkAssertion validates an
// assertion against it and Ops.Actual reads the quantity through actual.
type probe struct {
	name   string
	target targetKind
	// health and telemetry mark the probes that read a layer only the
	// section of that name boots.
	health, telemetry bool
	actual            func(r *Ops, target string) float64
}

// probes is the catalogue of assertion types, in the order
// docs/scenarios.md documents them.
var probes = []probe{
	{name: "vnis_allocated", actual: func(r *Ops, _ string) float64 { return float64(r.st.DB.Stats().Allocated) }},
	{name: "vnis_quarantined", actual: func(r *Ops, _ string) float64 { return float64(r.st.DB.Stats().Quarantined) }},
	{name: "jobs_completed", target: tenantTarget, actual: func(r *Ops, t string) float64 { return float64(r.completedCount(t)) }},
	{name: "jobs_pending", target: tenantTarget, actual: func(r *Ops, t string) float64 {
		n := 0
		for _, obj := range r.jobs.List(t) {
			if !obj.(*k8s.Job).Status.Completed {
				n++
			}
		}
		return float64(n)
	}},
	{name: "pods_running", target: tenantTarget, actual: func(r *Ops, t string) float64 { return float64(r.runningPods(t, "")) }},
	{name: "isolation_violations", actual: func(r *Ops, _ string) float64 { return float64(r.violations) }},
	{name: "switch_drops", target: reasonTarget, actual: func(r *Ops, t string) float64 {
		reason, _ := fabric.DropReasonByName(t) // checkAssertion vetted the name
		return float64(r.st.Topo.Stats().Drops[reason])
	}},
	{name: "switch_forwarded", actual: func(r *Ops, _ string) float64 { return float64(r.st.Topo.Stats().Forwarded) }},
	{name: "trunk_drops", actual: func(r *Ops, _ string) float64 { return float64(r.st.Topo.TrunkDrops()) }},
	{name: "global_link_bytes", actual: func(r *Ops, _ string) float64 { return float64(r.st.Topo.GlobalLinkBytes()) }},
	{name: "max_link_utilization", actual: func(r *Ops, _ string) float64 {
		max := 0.0
		for _, l := range r.st.Topo.Links() {
			if l.Utilization > max {
				max = l.Utilization
			}
		}
		return max
	}},
	{name: "latency_us", target: statTarget, actual: func(r *Ops, t string) float64 { return latencyStat(t).of(r.latUs) }},
	// Per-traffic-run probes: target is a run name (the run_traffic as
	// param), or "a/b" for the completion-time ratio of two runs.
	{name: "traffic_time_us", target: runTarget, actual: func(r *Ops, t string) float64 {
		return float64(r.traffic[t].Elapsed) / float64(time.Microsecond)
	}},
	{name: "traffic_mpi_bytes", target: runTarget, actual: func(r *Ops, t string) float64 { return float64(r.traffic[t].MPIBytes) }},
	{name: "traffic_global_bytes", target: runTarget, actual: func(r *Ops, t string) float64 {
		return float64(r.traffic[t].GlobalLinkBytes)
	}},
	{name: "traffic_ratio", target: pairTarget, actual: func(r *Ops, t string) float64 {
		a, b, _ := strings.Cut(t, "/")
		if r.traffic[b].Elapsed == 0 {
			return 0
		}
		return float64(r.traffic[a].Elapsed) / float64(r.traffic[b].Elapsed)
	}},
	{name: "sync_errors", actual: func(r *Ops, _ string) float64 {
		if r.st.VNISvc == nil {
			return 0
		}
		return float64(r.st.VNISvc.Endpoint.Stats().SyncErrors)
	}},
	{name: "distinct_tenant_vnis", actual: (*Ops).distinctTenantVNIs},
	// Health-loop probes; the time_to_* pair targets a node name or a link
	// key ("trunk:i-j" / "global:a-b"). nodes_cordoned counts the
	// scheduler's cordon set and works with or without the loop;
	// traffic_migrations reads a migratable run's report.
	{name: "time_to_detect_us", target: faultTarget, health: true, actual: func(r *Ops, t string) float64 { return r.detectUs[t] }},
	{name: "time_to_recover_us", target: faultTarget, health: true, actual: func(r *Ops, t string) float64 { return r.recoverUs[t] }},
	{name: "nodes_cordoned", actual: func(r *Ops, _ string) float64 {
		n := 0
		for _, node := range r.st.Nodes {
			if r.st.Cluster.Scheduler.Cordoned(node.Name) {
				n++
			}
		}
		return float64(n)
	}},
	{name: "remediations_done", health: true, actual: func(r *Ops, _ string) float64 {
		if r.remediator == nil {
			return 0
		}
		return float64(r.remediator.Done())
	}},
	{name: "traffic_migrations", target: runTarget, actual: func(r *Ops, t string) float64 { return float64(r.traffic[t].Migrations) }},
	// Series probes over the telemetry ring (no sampler, no series).
	{name: "telemetry_samples", telemetry: true, actual: func(r *Ops, _ string) float64 {
		if r.sampler == nil {
			return 0
		}
		return float64(r.sampler.Len())
	}},
	{name: "telemetry_peak_link_utilization", telemetry: true, actual: func(r *Ops, _ string) float64 {
		if r.sampler == nil {
			return 0
		}
		return r.sampler.PeakLinkUtilization()
	}},
	// Control-plane fault-layer probes: client retry/relist counters and
	// the post-run convergence check. All read 0 (cp_converged: 1) in
	// fault-free runs, so they are valid without fault events.
	{name: "apiserver_retries", actual: func(r *Ops, _ string) float64 { return float64(r.st.Cluster.Client.Stats().Retries) }},
	{name: "watch_relists", actual: func(r *Ops, _ string) float64 { return float64(r.st.Cluster.Client.Stats().Relists) }},
	{name: "stale_reads", actual: func(r *Ops, _ string) float64 { return float64(r.st.Cluster.Client.Stats().StaleReads) }},
	{name: "max_staleness_us", actual: func(r *Ops, _ string) float64 { return r.st.Cluster.Client.Stats().MaxStalenessUs }},
	{name: "cp_converged", actual: func(r *Ops, _ string) float64 {
		// 1 when every informer cache matches the API server's store
		// exactly — the eventual-convergence check. Fault-free runs read 1
		// by construction (caches only drift when a fault event broke a
		// watch or an outage delayed deliveries past run end).
		if r.st.Cluster.Client.VerifyCaches() == nil {
			return 1
		}
		return 0
	}},
}

func probeByName(name string) *probe {
	return lookup(probes, name, func(p *probe) string { return p.name })
}

// latencyStats are the latency_us targets: statistics over every pingpong
// one-way sample.
var latencyStats = []stat{
	{"p50", func(us []float64) float64 { return metrics.Summarize(us).P50 }},
	{"p90", func(us []float64) float64 { return metrics.Summarize(us).P90 }},
	{"p99", func(us []float64) float64 { return metrics.Percentile(us, 99) }},
	{"max", func(us []float64) float64 { return metrics.Summarize(us).Max }},
	{"mean", func(us []float64) float64 { return metrics.Summarize(us).Mean }},
}

type stat struct {
	name string
	of   func(us []float64) float64
}

func latencyStat(name string) *stat {
	return lookup(latencyStats, name, func(s *stat) string { return s.name })
}

// distinctTenantVNIs reads 1 when no two tenants share a non-virtual VNI.
func (r *Ops) distinctTenantVNIs(string) float64 {
	seen := map[string]string{} // vni value -> namespace
	for _, t := range r.sc.Fleet.Tenants {
		for _, obj := range r.vnis.List(t.Name) {
			cr := obj.(*k8s.Custom)
			if cr.Spec[vniapi.SpecVirtual] == "true" {
				continue
			}
			v := cr.Spec[vniapi.SpecVNI]
			if ns, dup := seen[v]; dup && ns != t.Name {
				return 0
			}
			seen[v] = t.Name
		}
	}
	return 1
}

// Actual computes the current value of an assertion's probed quantity.
// Assertions normally run after the event timeline (RunHooked), but every
// probe reads live state, so interactive mode can evaluate them mid-run.
// The assertion must have passed checkAssertion.
func (r *Ops) Actual(a Assertion) float64 { return probeByName(a.Type).actual(r, a.Target) }

var compareOps = map[string]func(a, b float64) bool{
	"==": func(a, b float64) bool { return a == b },
	"!=": func(a, b float64) bool { return a != b },
	"<":  func(a, b float64) bool { return a < b },
	"<=": func(a, b float64) bool { return a <= b },
	">":  func(a, b float64) bool { return a > b },
	">=": func(a, b float64) bool { return a >= b },
}

// checkAssertion validates one assertion against its probe's declaration
// and the scenario: known type and op, the section the probe reads present,
// a target of the declared kind, a numeric or boolean value.
func (sc *Scenario) checkAssertion(a *Assertion) error {
	p := probeByName(a.Type)
	switch {
	case a.Type == "":
		return sc.errAt(a.Line, "assertion needs a type")
	case p == nil:
		return sc.errAt(a.Line, "unknown assertion type %q", a.Type)
	case compareOps[a.Op] == nil:
		return sc.errAt(a.Line, "assertion op must be one of == != < <= > >=, got %q", a.Op)
	case p.telemetry && !sc.Telemetry.Enabled():
		return sc.errAt(a.Line, "%s: requires a telemetry: section (sampleEvery)", a.Type)
	case p.health && !sc.Health.Enabled():
		return sc.errAt(a.Line, "%s: requires a health: section (checkEvery)", a.Type)
	}
	ok, want := true, ""
	switch p.target {
	case noTarget:
		ok, want = a.Target == "", "takes no target"
	case tenantTarget:
		ok, want = a.Target == "" || sc.tenant(a.Target) != nil, "unknown tenant"
	case reasonTarget:
		_, ok = fabric.DropReasonByName(a.Target)
		want = "target must be a drop reason (e.g. link_down, vni_ingress_denied)"
	case statTarget:
		ok, want = latencyStat(a.Target) != nil, "target must be one of p50, p90, p99, max, mean"
	case runTarget:
		ok, want = sc.run(a.Target) != nil, "target must name a traffic run (a run_traffic as/traffic name)"
	case pairTarget:
		x, y, cut := strings.Cut(a.Target, "/")
		ok, want = cut && sc.run(x) != nil && sc.run(y) != nil, "target must be two traffic runs as \"a/b\""
	case faultTarget:
		ok, want = sc.validNode(a.Target) || sc.validLinkKey(a.Target), "target must be a fleet node or a link key (trunk:i-j / global:a-b)"
	}
	if !ok {
		return sc.errAt(a.Line, "%s: %s, got %q", a.Type, want, a.Target)
	}
	if a.Value == "" {
		return sc.errAt(a.Line, "%s: missing value", a.Type)
	}
	if _, err := parseExpected(a.Value); err != nil {
		return sc.errAt(a.Line, "%s: value: %v", a.Type, err)
	}
	return nil
}

// validLinkKey reports whether s is a link key as the health daemon emits
// them — "trunk:i-j" / "global:i-j", both by global switch index (a global
// link is keyed by its two gateway switches).
func (sc *Scenario) validLinkKey(s string) bool {
	kind, rest, _ := strings.Cut(s, ":")
	a, b, _ := strings.Cut(rest, "-")
	x, errX := strconv.Atoi(a)
	y, errY := strconv.Atoi(b)
	limit := sc.Topology.Groups * sc.Topology.SwitchesPerGroup
	return (kind == "trunk" || kind == "global") && errX == nil && errY == nil &&
		x >= 0 && y >= 0 && x < limit && y < limit && x != y
}

// parseExpected turns an assertion value into a comparable number; booleans
// map to 0/1.
func parseExpected(v string) (float64, error) {
	if b, err := strconv.ParseBool(v); err == nil {
		if b {
			return 1, nil
		}
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number or boolean: %q", v)
	}
	return f, nil
}
