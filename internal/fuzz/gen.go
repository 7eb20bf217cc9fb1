package fuzz

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// Config bounds the generator's search space. The defaults keep specs small
// enough that one Execute (two runs plus a full queue drain) finishes in
// milliseconds, so `shssim fuzz -n 500` is an interactive command, while
// still reaching multi-group dragonfly shapes, parallel global links, NIC
// and trunk faults, collectives and churn.
type Config struct {
	// MaxGroups and MaxSwitchesPerGroup bound the dragonfly shape.
	MaxGroups, MaxSwitchesPerGroup int
	// MaxNodes bounds the fleet (always at least 2).
	MaxNodes int
	// MaxTenants bounds the namespace count (always at least 1).
	MaxTenants int
	// MaxFaults bounds injected fault/recovery pairs per scenario.
	MaxFaults int
	// MaxTrafficRuns bounds pingpong + run_traffic events per scenario.
	MaxTrafficRuns int
}

// DefaultConfig returns the bounds `shssim fuzz` and the go-test fuzz
// targets use.
func DefaultConfig() Config {
	return Config{
		MaxGroups:           3,
		MaxSwitchesPerGroup: 3,
		MaxNodes:            6,
		MaxTenants:          3,
		MaxFaults:           3,
		MaxTrafficRuns:      2,
	}
}

// genState carries the generator's bookkeeping while a spec is assembled.
type genState struct {
	rng *rand.Rand
	sc  *scenario.Scenario
	// at is the monotone virtual-time cursor events are stamped with.
	at time.Duration
	// anchorPods records each tenant's long-running anchor job's pod count,
	// keyed by tenant index; traffic events draw gangs from anchors.
	anchorPods []int
}

// tick advances the time cursor by a random 20–80 ms and returns it.
func (g *genState) tick() time.Duration {
	g.at += time.Duration(20+g.rng.Intn(61)) * time.Millisecond
	return g.at
}

// event appends one event at the cursor. params come as key/value pairs.
func (g *genState) event(at time.Duration, action, target string, params ...string) {
	ev := scenario.Event{At: at, Action: action, Target: target, Params: map[string]string{}}
	for i := 0; i+1 < len(params); i += 2 {
		ev.Params[params[i]] = params[i+1]
	}
	g.sc.Events = append(g.sc.Events, ev)
}

// Generate draws one random valid scenario. Same rng state, same spec: the
// fuzz driver derives per-iteration specs from one seeded stream, so any
// finding names the seed and index that reproduce it.
//
// The generator is constrained so a violation always indicts the engine:
// every fault is recovered before traffic runs, traffic gangs have >= 2
// pods on a VNI, probe_isolation only fires when every tenant holds a VNI,
// and generated assertions only state facts the construction guarantees
// (anchor jobs outlive the event horizon, probes find zero violations).
// The returned spec passes Validate by construction; Generate panics if it
// ever does not, because that is a generator bug worth failing loudly on.
func Generate(rng *rand.Rand, cfg Config) *scenario.Scenario {
	g := &genState{rng: rng}

	groups := 1 + rng.Intn(cfg.MaxGroups)
	spg := 1 + rng.Intn(cfg.MaxSwitchesPerGroup)
	totalSwitches := groups * spg
	nodes := 2 + rng.Intn(cfg.MaxNodes-1)
	if nodes < totalSwitches {
		nodes = totalSwitches // enough NICs to populate every switch
	}
	vniService := rng.Intn(10) > 0 // 10% of specs run the vni:false baseline
	tenants := 1 + rng.Intn(cfg.MaxTenants)

	g.sc = &scenario.Scenario{
		Name: fmt.Sprintf("fuzz-g%d-s%d-n%d-t%d", groups, spg, nodes, tenants),
		Seed: 1 + rng.Int63n(1<<31),
	}
	g.sc.Topology.Groups = groups
	g.sc.Topology.SwitchesPerGroup = spg
	g.sc.Topology.GlobalLinksPerPair = 1 + rng.Intn(spg)
	if totalSwitches > 1 && rng.Intn(4) > 0 {
		// Stripe NICs across switches; the remaining quarter keeps the
		// seed deployment's everything-on-switch-0 shape.
		g.sc.Topology.NodesPerSwitch = (nodes + totalSwitches - 1) / totalSwitches
	}
	if groups > 1 && rng.Intn(2) == 0 {
		g.sc.Topology.GlobalLinkBandwidthBits = float64([]int{50, 100, 200}[rng.Intn(3)]) * 1e9
		g.sc.Topology.GlobalLinkPropagation = []time.Duration{200, 500, 1000}[rng.Intn(3)] * time.Nanosecond
	}

	fl := &g.sc.Fleet
	fl.Nodes = nodes
	fl.VNIService = vniService
	fl.VNIPoolMin = 1024
	fl.VNIPoolMax = fabric.VNI(1024 + 15 + rng.Intn(48))
	fl.Quarantine = []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second}[rng.Intn(3)]
	if rng.Intn(3) == 0 {
		fl.PodsPerNode = 2 + rng.Intn(3)
	}
	for i := 0; i < tenants; i++ {
		fl.Tenants = append(fl.Tenants, scenario.Tenant{Name: fmt.Sprintf("t%d", i)})
	}

	// Named traffic specs for run_traffic to draw from.
	patterns := workload.Patterns()
	for i, n := 0, rng.Intn(3); i < n; i++ {
		ts := scenario.TrafficSpec{
			Name:       fmt.Sprintf("tr%d", i),
			Pattern:    string(patterns[rng.Intn(len(patterns))]),
			Bytes:      1 << (10 + rng.Intn(7)), // 1 KiB .. 64 KiB
			Iterations: 1 + rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			ts.Compute = time.Duration(1+rng.Intn(50)) * time.Microsecond
		}
		// A third of generated specs exercise the flow fast path, so the
		// conservation, routing-oracle and determinism invariants run over
		// flow-level completions (and hybrid's congestion fallback) too.
		switch rng.Intn(3) {
		case 1:
			ts.Fidelity = "flow"
		case 2:
			ts.Fidelity = "hybrid"
		}
		g.sc.Traffic = append(g.sc.Traffic, ts)
	}

	g.event(0, "start_fleet", "")

	// Anchors: one long-running job per tenant whose pods (and VNI, when
	// the service is installed) back every later traffic and probe event.
	// Their 1h runtime outlives the event horizon, so pods_running and
	// vnis_allocated assertions below are guaranteed by construction; the
	// drain at end of run retires them on the virtual clock for free.
	g.anchorPods = make([]int, tenants)
	for i := 0; i < tenants; i++ {
		pods := 2 + rng.Intn(2)
		g.anchorPods[i] = pods
		vni := ""
		if vniService {
			vni = "true"
		}
		params := []string{"name", "anchor", "pods", strconv.Itoa(pods), "runtime", "1h", "tenant", fl.Tenants[i].Name}
		if vni != "" {
			params = append(params, "vni", vni)
		}
		g.event(g.tick(), "submit_job", "", params...)
		g.event(g.tick(), "wait_running", "",
			"tenant", fl.Tenants[i].Name, "job", "anchor", "pods", strconv.Itoa(pods), "timeout", "60s")
	}

	g.genFaults(cfg, groups, spg, nodes)
	g.genHealth(groups, spg, nodes, tenants)
	g.genControlPlane()
	if vniService {
		g.genTraffic(cfg, tenants)
	}
	if rng.Intn(2) == 0 {
		// TTL-deleted short jobs exercise the allocate/quarantine/release
		// cycle (with the VNI service) or plain scheduler churn (without —
		// the annotation is inert when no service is installed).
		t := rng.Intn(tenants)
		g.event(g.tick(), "churn_jobs", "",
			"tenant", fl.Tenants[t].Name, "count", strconv.Itoa(2+rng.Intn(3)),
			"runtime", "20ms", "interval", "30ms")
	}
	if vniService && rng.Intn(2) == 0 {
		g.event(g.tick(), "probe_isolation", "")
		g.sc.Assertions = append(g.sc.Assertions,
			scenario.Assertion{Type: "isolation_violations", Op: "==", Value: "0"})
	}
	if rng.Intn(2) == 0 {
		g.event(g.tick(), "run_for", "", "duration", "100ms")
	}

	// Assertions only state what the construction guarantees.
	for i := 0; i < tenants; i++ {
		if rng.Intn(2) == 0 {
			g.sc.Assertions = append(g.sc.Assertions, scenario.Assertion{
				Type: "pods_running", Target: fl.Tenants[i].Name, Op: ">=", Value: strconv.Itoa(g.anchorPods[i])})
		}
	}
	if vniService {
		g.sc.Assertions = append(g.sc.Assertions,
			scenario.Assertion{Type: "vnis_allocated", Op: ">=", Value: strconv.Itoa(tenants)},
			scenario.Assertion{Type: "distinct_tenant_vnis", Op: "==", Value: "true"})
	} else {
		g.sc.Assertions = append(g.sc.Assertions,
			scenario.Assertion{Type: "vnis_allocated", Op: "==", Value: "0"})
	}

	if err := g.sc.Validate(); err != nil {
		panic(fmt.Sprintf("fuzz: generator produced invalid scenario: %v\n%s", err, scenario.EmitYAML(g.sc)))
	}
	return g.sc
}

// genFaults injects up to cfg.MaxFaults fault/recovery pairs: NIC failures,
// intra-group trunk cuts, global-link cuts. Every fault is recovered before
// genTraffic's events run, so traffic can only stall through an engine bug.
func (g *genState) genFaults(cfg Config, groups, spg, nodes int) {
	type recovery struct {
		action, target string
		params         []string
	}
	var recs []recovery
	for i, n := 0, g.rng.Intn(cfg.MaxFaults+1); i < n; i++ {
		switch choice := g.rng.Intn(3); {
		case choice == 0:
			node := fmt.Sprintf("node%d", g.rng.Intn(nodes))
			g.event(g.tick(), "inject_nic_failure", node)
			recs = append(recs, recovery{"recover_nic", node, nil})
		case choice == 1 && spg >= 2:
			grp := g.rng.Intn(groups)
			a := grp*spg + g.rng.Intn(spg)
			b := grp*spg + g.rng.Intn(spg)
			for b == a {
				b = grp*spg + g.rng.Intn(spg)
			}
			pair := fmt.Sprintf("%d,%d", a, b)
			g.event(g.tick(), "fail_link", "", "switches", pair)
			recs = append(recs, recovery{"recover_link", "", []string{"switches", pair}})
		case choice == 2 && groups >= 2:
			a := g.rng.Intn(groups)
			b := g.rng.Intn(groups)
			for b == a {
				b = g.rng.Intn(groups)
			}
			pair := fmt.Sprintf("%d,%d", a, b)
			params := []string{"groups", pair}
			if g.rng.Intn(2) == 0 {
				params = append(params, "link", strconv.Itoa(g.rng.Intn(g.sc.Topology.GlobalLinksPerPair)))
			}
			g.event(g.tick(), "fail_link", "", params...)
			recs = append(recs, recovery{"recover_link", "", params})
		}
	}
	for _, r := range recs {
		g.event(g.tick(), r.action, r.target, r.params...)
	}
}

// genHealth (about a third of specs): enable the autonomous health loop
// and drive it with the gray failures it exists to catch — slow-drain
// NICs, operator remediations, a flapping trunk — then wait for the
// remediation controller to fully quiesce and for every anchor gang to
// be whole again. The ordering mirrors genFaults: the chaos heals before
// traffic runs, so a later stall still indicts the engine. Specs built
// here additionally arm the harness's remediation-quiesce invariant
// (VioRemediation), which re-checks cordon state after the final queue
// drain.
func (g *genState) genHealth(groups, spg, nodes, tenants int) {
	if g.rng.Intn(3) != 0 {
		return
	}
	// Fast loop tuning so one detect→cordon→drain→replace→uncordon cycle
	// fits well inside the generated timeline.
	g.sc.Health = scenario.HealthSpec{
		CheckEvery:      50 * time.Millisecond,
		ErrorsPerSecond: 50,
		DegradeTicks:    2,
		DrainGrace:      50 * time.Millisecond,
		ReplaceDelay:    100 * time.Millisecond,
	}
	if g.rng.Intn(2) == 0 {
		g.sc.Health.Budget = 1 + g.rng.Intn(2)
	}
	// Distinct target nodes: re-cordoning a node already in the loop is
	// adoption-deduped, which would make the remediation count ambiguous.
	perm := g.rng.Perm(nodes)
	next := 0
	want := 0
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		switch choice := g.rng.Intn(3); {
		case choice <= 1 && next < len(perm):
			node := fmt.Sprintf("node%d", perm[next])
			next++
			want++
			if choice == 0 {
				// duration is a backstop: remediation's replace stops the
				// injector, but a shrunk spec may have lost that path and
				// an unbounded injector would tick forever.
				g.event(g.tick(), "slow_drain_nic", node,
					"rate", strconv.Itoa(500*(1+g.rng.Intn(4))), "duration", "2s")
			} else {
				g.event(g.tick(), "remediate", node)
			}
		case choice == 2 && spg >= 2:
			grp := g.rng.Intn(groups)
			a := grp*spg + g.rng.Intn(spg)
			b := grp*spg + g.rng.Intn(spg)
			for b == a {
				b = grp*spg + g.rng.Intn(spg)
			}
			count := 2 + g.rng.Intn(2)
			g.event(g.tick(), "flap_trunk", "",
				"switches", fmt.Sprintf("%d,%d", a, b),
				"period", "100ms", "count", strconv.Itoa(count))
			// Let the bounded flap train finish (the link ends up) before
			// later events run traffic over it.
			g.event(g.tick(), "run_for", "",
				"duration", fmt.Sprintf("%dms", count*100+100))
		}
	}
	// Quiesce even when nothing was injected here: a NIC fault from
	// genFaults can trip the daemon on its own, and nothing below may
	// start until every such remediation has drained, replaced and
	// uncordoned.
	g.event(g.tick(), "wait_remediated", "", "count", strconv.Itoa(want), "timeout", "60s")
	for i := 0; i < tenants; i++ {
		// Drained anchor pods are recreated by the job controller; the
		// gangs must be whole again before traffic runs and before the
		// pods_running assertions are evaluated.
		g.event(g.tick(), "wait_running", "",
			"tenant", g.sc.Fleet.Tenants[i].Name, "job", "anchor",
			"pods", strconv.Itoa(g.anchorPods[i]), "timeout", "60s")
	}
	g.sc.Assertions = append(g.sc.Assertions,
		// >= not ==: genFaults' NIC faults can trigger remediations of
		// their own on top of the injections counted here.
		scenario.Assertion{Type: "remediations_done", Op: ">=", Value: strconv.Itoa(want)},
		scenario.Assertion{Type: "nodes_cordoned", Op: "==", Value: "0"})
}

// genControlPlane (about a third of specs): inject control-plane chaos —
// a full apiserver outage, a degraded window, or silent watch-stream
// breaks — always recovered well inside the client's retry-budget span,
// with a post-recovery cushion long enough for queued retries to land and
// the gap prober to relist. The harness's eventual-convergence invariant
// (VioConvergence) and the cp_converged assertion emitted here then hold
// by construction; a spec that fails them indicts the fault layer.
func (g *genState) genControlPlane() {
	if g.rng.Intn(3) != 0 {
		return
	}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		switch g.rng.Intn(3) {
		case 0:
			g.event(g.tick(), "fail_apiserver", "")
			// Outages stay well under the retry layer's total backoff span
			// (~4s): consumers queue writes behind retries rather than
			// re-issuing them, so an outage must end while budget remains.
			g.at += time.Duration(100+g.rng.Intn(300)) * time.Millisecond
			g.event(g.at, "recover_apiserver", "")
		case 1:
			g.event(g.tick(), "degrade_apiserver", "",
				"latency_factor", strconv.Itoa(2+g.rng.Intn(8)),
				"error_prob", []string{"0.1", "0.2", "0.4"}[g.rng.Intn(3)])
			g.at += time.Duration(100+g.rng.Intn(300)) * time.Millisecond
			g.event(g.at, "recover_apiserver", "")
		case 2:
			// Watch breaks need no recovery event: the gap prober detects
			// the stalled informer and relists on its own.
			kinds := []string{"pods", "jobs", "nodes"}
			g.event(g.tick(), "break_watch", "", "kind", kinds[g.rng.Intn(len(kinds))])
		}
	}
	// Cushion: let queued retries land and the prober repair any broken
	// watch before later events wait on control-plane state.
	g.event(g.tick(), "run_for", "", "duration", "500ms")
	g.sc.Assertions = append(g.sc.Assertions,
		scenario.Assertion{Type: "cp_converged", Op: "==", Value: "1"})
}

// genTraffic emits pingpong and collective runs over the tenants' anchor
// gangs. pingpong carries tolerate_stall so a transient control-plane
// wobble (a pod restarting after a NIC fault) logs instead of erroring;
// stalls that matter are caught by the queue-drain stuck check.
func (g *genState) genTraffic(cfg Config, tenants int) {
	runs := g.rng.Intn(cfg.MaxTrafficRuns + 1)
	for i := 0; i < runs; i++ {
		t := g.rng.Intn(tenants)
		tenant := g.sc.Fleet.Tenants[t].Name
		if len(g.sc.Traffic) > 0 && g.rng.Intn(2) == 0 {
			ts := g.sc.Traffic[g.rng.Intn(len(g.sc.Traffic))]
			g.event(g.tick(), "run_traffic", "",
				"tenant", tenant, "job", "anchor", "traffic", ts.Name,
				"as", fmt.Sprintf("run%d", i), "timeout", "60s")
			g.sc.Assertions = append(g.sc.Assertions, scenario.Assertion{
				Type: "traffic_mpi_bytes", Target: fmt.Sprintf("run%d", i), Op: ">", Value: "0"})
		} else {
			g.event(g.tick(), "pingpong", "",
				"tenant", tenant, "job", "anchor",
				"rounds", strconv.Itoa(5+g.rng.Intn(26)),
				"bytes", strconv.Itoa(8<<g.rng.Intn(8)),
				"timeout", "30s", "tolerate_stall", "true")
		}
	}
}
