package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// minimal returns a parseable scenario skeleton for mutation in tests.
const minimal = `
name: t
fleet:
  nodes: 2
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
`

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	sc, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sc
}

// TestLogfAllocatesOnlyItsLine pins a narration line's cost: the line's
// own string and nothing else — no formatted message or timestamp beside it,
// and no boxing of the clock. The caller's arguments come boxed, as a call
// site boxes them.
func TestLogfAllocatesOnlyItsLine(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not constants under the race detector")
	}
	r := NewOps(mustParse(t, minimal))
	r.res.Log = make([]string, 0, 1000)
	args := []any{"node-1", 3, "ok"}
	r.logf("health: cordoned %s after %d probes (%s)", args...)
	if got := r.res.Log[0]; got != "[00:00.000] health: cordoned node-1 after 3 probes (ok)" {
		t.Fatalf("line = %q", got)
	}
	if got := testing.AllocsPerRun(100, func() { r.logf("health: cordoned %s after %d probes (%s)", args...) }); got != 1 {
		t.Errorf("a narration line costs %.0f allocations, want 1", got)
	}
}

func TestParseFullScenario(t *testing.T) {
	sc := mustParse(t, `
# comment
name: full
description: "quoted description"
seed: 42
fleet:
  nodes: 3
  vniPoolMin: 100
  vniPoolMax: 200
  quarantine: 10s
  tenants:
    - name: a
    - name: b
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: submit_job
    tenant: a
    name: j1
    pods: 2
    runtime: 1h
    vni: "true"
  - at: 2s
    action: inject_nic_failure
    target: node2
assertions:
  - type: vnis_allocated
    value: 1
  - type: latency_us
    target: p50
    op: "<="
    value: 5.0
`)
	if sc.Name != "full" || sc.Seed != 42 || sc.Fleet.Nodes != 3 {
		t.Errorf("header mismatch: %+v", sc)
	}
	if sc.Description != "quoted description" {
		t.Errorf("description = %q", sc.Description)
	}
	if len(sc.Fleet.Tenants) != 2 || sc.Fleet.Tenants[1].Name != "b" {
		t.Errorf("tenants = %+v", sc.Fleet.Tenants)
	}
	if len(sc.Events) != 3 || len(sc.Assertions) != 2 {
		t.Fatalf("got %d events, %d assertions", len(sc.Events), len(sc.Assertions))
	}
	ev := sc.Events[1]
	if ev.Action != "submit_job" || ev.Params["vni"] != "true" || ev.Params["pods"] != "2" {
		t.Errorf("event = %+v", ev)
	}
	if sc.Assertions[1].Op != "<=" || sc.Assertions[1].Target != "p50" {
		t.Errorf("assertion = %+v", sc.Assertions[1])
	}
}

// TestParseErrorsAreLineAnchored checks that structural and semantic
// failures name the offending line — the contract `shssim validate` and
// editors depend on.
func TestParseErrorsAreLineAnchored(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab indent", "name: x\nevents:\n\t- at: 0s\n", "line 3"},
		{"bad line", "name: x\nfleet:\n  nodes 2\n", "line 3"},
		{"duplicate key", "name: x\nname: y\n", "line 2"},
		{"bad item indent", "name: x\nevents:\n  - at: 0s\n      action: start_fleet\n", "line 4"},
		{"unknown action", minimal + "  - at: 1s\n    action: warp_drive\n", ":10:"},
		{"missing param", minimal + "  - at: 1s\n    action: submit_job\n", ":10:"},
		{"events out of order", minimal + "  - at: 5s\n    action: heal_partition\n  - at: 1s\n    action: heal_partition\n", ":12:"},
		{"unknown tenant", minimal + "  - at: 1s\n    action: submit_job\n    tenant: ghost\n    name: j\n", ":10:"},
		{"bad node target", minimal + "  - at: 1s\n    action: inject_nic_failure\n    target: node9\n", ":10:"},
		{"unknown assertion", minimal + "assertions:\n  - type: quantum_flux\n    value: 1\n", ":11:"},
		{"bad op", minimal + "assertions:\n  - type: vnis_allocated\n    op: \"~=\"\n    value: 1\n", ":11:"},
		{"bad drop reason", minimal + "assertions:\n  - type: switch_drops\n    target: gremlins\n    value: 1\n", ":11:"},
		{"value not a number", minimal + "assertions:\n  - type: vnis_allocated\n    value: lots\n", ":11:"},
		// Parameters are typed by their declaration, not by their name: a
		// boolean that is not one used to mean false, and count: -1 was told
		// it must be positive although 0 is legal.
		{"flag not a boolean", minimal + "  - at: 1s\n    action: pingpong\n    tenant: a\n    job: j\n    tolerate_stall: maybe\n",
			`:10: pingpong: tolerate_stall: not a boolean: "maybe"`},
		{"negative count", "name: t\nhealth:\n  checkEvery: 1s\nevents:\n  - at: 0s\n    action: start_fleet\n  - at: 1s\n    action: wait_remediated\n    count: -1\n",
			`:7: wait_remediated: count: must be a non-negative integer, got "-1"`},
		{"vni beyond 32 bits", "name: t\nfleet:\n  vniPoolMax: 4294967296\n", `:3: fleet.vniPoolMax: must be a positive integer, got "4294967296"`},
		{"two documents", minimal + "---\nname: second\n", "line 11: a scenario file holds one document"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if tc.name == "two documents" && !errors.Is(err, ErrSyntax) {
				t.Errorf("error %q is not ErrSyntax", err)
			}
		})
	}
}

func TestValidateRequiresStartFleetFirst(t *testing.T) {
	_, err := Parse(strings.NewReader("name: x\nevents:\n  - at: 0s\n    action: heal_partition\n"))
	if err == nil || !strings.Contains(err.Error(), "start_fleet") {
		t.Fatalf("want start_fleet error, got %v", err)
	}
}

const smokeScenario = `
name: smoke
seed: 1
fleet:
  nodes: 2
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: submit_job
    tenant: a
    name: j
    pods: 2
    runtime: 1h
    vni: "true"
  - at: 0s
    action: wait_running
    tenant: a
    pods: 2
  - at: 0s
    action: pingpong
    tenant: a
    job: j
    rounds: 50
assertions:
  - type: vnis_allocated
    value: 1
  - type: pods_running
    target: a
    value: 2
  - type: latency_us
    target: p50
    op: "<="
    value: 10
  - type: isolation_violations
    value: 0
`

func TestParseTopologySection(t *testing.T) {
	sc := mustParse(t, `
name: topo
topology:
  groups: 2
  switchesPerGroup: 2
  nodesPerSwitch: 1
  globalLinksPerPair: 2
  globalBandwidthGbps: 25
  globalLatency: 500ns
fleet:
  nodes: 4
  podsPerNode: 1
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: fail_link
    groups: 0,1
    link: 1
  - at: 2s
    action: fail_link
    switches: 0,1
  - at: 3s
    action: recover_link
    groups: 0,1
`)
	topo := sc.Topology
	if topo.Groups != 2 || topo.SwitchesPerGroup != 2 || topo.NodesPerSwitch != 1 || topo.GlobalLinksPerPair != 2 {
		t.Errorf("topology mis-parsed: %+v", topo)
	}
	if topo.GlobalLinkBandwidthBits != 25e9 {
		t.Errorf("global bandwidth = %v, want 25e9", topo.GlobalLinkBandwidthBits)
	}
	if topo.GlobalLinkPropagation != 500 {
		t.Errorf("global latency = %v, want 500ns", topo.GlobalLinkPropagation)
	}
	if sc.Fleet.PodsPerNode != 1 {
		t.Errorf("podsPerNode = %d, want 1", sc.Fleet.PodsPerNode)
	}
}

func TestValidateLinkEvents(t *testing.T) {
	base := `
name: topo
topology:
  groups: 2
  switchesPerGroup: 2
fleet:
  nodes: 2
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: fail_link
`
	for _, tc := range []struct {
		params string
		errSub string
	}{
		{"    groups: 0,1\n", ""},
		{"    switches: 0,1\n", ""},
		{"", "exactly one of groups or switches"},
		{"    groups: 0,1\n    switches: 0,1\n", "exactly one of groups or switches"},
		{"    groups: 0,5\n", "not a valid group index"},
		{"    groups: 0,0\n", "indices must differ"},
		{"    groups: 0,1\n    link: 3\n", "link: must be 0..0"},
		{"    switches: 0,2\n", "different groups"},
		{"    switches: 0,9\n", "not a valid switch index"},
		{"    switches: 0,1\n    link: 0\n", "only valid with groups"},
	} {
		_, err := Parse(strings.NewReader(base + tc.params))
		if tc.errSub == "" {
			if err != nil {
				t.Errorf("params %q rejected: %v", tc.params, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("params %q: error %v, want substring %q", tc.params, err, tc.errSub)
		}
	}
}

func TestValidateTopologyRejectsOversubscribedGlobals(t *testing.T) {
	_, err := Parse(strings.NewReader(`
name: topo
topology:
  groups: 2
  switchesPerGroup: 1
  globalLinksPerPair: 2
fleet:
  nodes: 2
events:
  - at: 0s
    action: start_fleet
`))
	if err == nil || !strings.Contains(err.Error(), "globalLinksPerPair") {
		t.Errorf("over-subscribed topology accepted: %v", err)
	}
}

func TestRunMultiGroupScenario(t *testing.T) {
	// A cross-switch fleet end-to-end: 2 groups × 1 switch × 1 node per
	// switch, with a one-pod-per-node budget so the job's second rank
	// spills to the other group and the pingpong crosses the global link.
	sc := mustParse(t, `
name: multigroup
topology:
  groups: 2
  switchesPerGroup: 1
  nodesPerSwitch: 1
fleet:
  nodes: 2
  podsPerNode: 1
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: submit_job
    tenant: a
    name: j
    pods: 2
    runtime: 1h
    vni: "true"
  - at: 0s
    action: wait_running
    tenant: a
    pods: 2
  - at: 1s
    action: pingpong
    tenant: a
    job: j
    rounds: 50
assertions:
  - type: global_link_bytes
    op: ">="
    value: 1
  - type: trunk_drops
    value: 0
  - type: isolation_violations
    value: 0
`)
	res := Run(sc)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	for _, a := range res.Asserts {
		if !a.Pass {
			t.Errorf("assertion failed: %s", a)
		}
	}
}

func TestRunSmokeScenario(t *testing.T) {
	res := Run(mustParse(t, smokeScenario))
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.Passed() {
		for _, a := range res.Asserts {
			t.Logf("%s", a)
		}
		t.Fatal("scenario failed")
	}
}

// TestRunIsDeterministic is the engine's core guarantee: identical files
// yield identical assertion actuals and identical logs.
func TestRunIsDeterministic(t *testing.T) {
	r1 := Run(mustParse(t, smokeScenario))
	r2 := Run(mustParse(t, smokeScenario))
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("run errors: %v / %v", r1.Err, r2.Err)
	}
	if !reflect.DeepEqual(r1.Asserts, r2.Asserts) {
		t.Errorf("assertion results differ:\n%v\n%v", r1.Asserts, r2.Asserts)
	}
	if !reflect.DeepEqual(r1.Log, r2.Log) {
		t.Errorf("logs differ:\n%v\n%v", r1.Log, r2.Log)
	}
	if r1.SimTime != r2.SimTime {
		t.Errorf("sim times differ: %v vs %v", r1.SimTime, r2.SimTime)
	}
}

// TestRunNICFailureDropsTraffic exercises the fault-injection hooks end to
// end: traffic blackholes with link_down drops while pods stay running,
// and flows again after recovery.
func TestRunNICFailureDropsTraffic(t *testing.T) {
	res := Run(mustParse(t, `
name: nicfail
fleet:
  nodes: 2
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: submit_job
    tenant: a
    name: j
    pods: 2
    runtime: 1h
    vni: "true"
  - at: 0s
    action: wait_running
    tenant: a
    pods: 2
  - at: 1s
    action: inject_nic_failure
    target: node1
  - at: 1s
    action: pingpong
    tenant: a
    job: j
    rounds: 5
    timeout: 1s
    tolerate_stall: true
  - at: 3s
    action: recover_nic
    target: node1
  - at: 3s
    action: pingpong
    tenant: a
    job: j
    rounds: 20
assertions:
  - type: switch_drops
    target: link_down
    op: ">="
    value: 1
  - type: pods_running
    target: a
    value: 2
`))
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.Passed() {
		for _, a := range res.Asserts {
			t.Logf("%s", a)
		}
		t.Fatal("scenario failed")
	}
}

// TestRunFailingAssertionReported checks a false assertion turns into a
// failed (but not errored) result.
func TestRunFailingAssertionReported(t *testing.T) {
	res := Run(mustParse(t, minimal+`assertions:
  - type: vnis_allocated
    value: 99
`))
	if res.Err != nil {
		t.Fatalf("unexpected run error: %v", res.Err)
	}
	if res.Passed() {
		t.Fatal("want failure")
	}
	if len(res.Asserts) != 1 || res.Asserts[0].Pass || res.Asserts[0].Actual != 0 {
		t.Errorf("asserts = %+v", res.Asserts)
	}
}

// TestRunEventErrorAnchored checks mid-run failures carry the event's line.
func TestRunEventErrorAnchored(t *testing.T) {
	res := Run(mustParse(t, minimal+`  - at: 1s
    action: wait_running
    tenant: a
    pods: 2
    timeout: 1s
`))
	if res.Err == nil {
		t.Fatal("want timeout error")
	}
	if !strings.Contains(res.Err.Error(), ":10:") {
		t.Errorf("error %q not anchored to event line", res.Err)
	}
	if res.Passed() {
		t.Error("errored run must not pass")
	}
}

// TestRunRecoversPanicIntoResult feeds Run a scenario that panics mid-event
// (no start_fleet, so the stack is nil — only constructible by bypassing
// Validate) and requires a non-nil Result carrying the panic as Err.
func TestRunRecoversPanicIntoResult(t *testing.T) {
	sc := &Scenario{
		Name:   "panics",
		Events: []Event{{Action: "run_for", Params: map[string]string{"duration": "1s"}}},
	}
	res := Run(sc)
	if res == nil {
		t.Fatal("Run returned nil Result after recovered panic")
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") {
		t.Errorf("Err = %v, want recovered panic", res.Err)
	}
	if res.Passed() {
		t.Error("panicked run must not pass")
	}
}

// TestParseTrafficSection checks the traffic: schema, its defaults, and
// the run_traffic / traffic_* assertion validation.
func TestParseTrafficSection(t *testing.T) {
	sc := mustParse(t, `
name: traffic
topology:
  groups: 2
  nodesPerSwitch: 2
fleet:
  nodes: 4
  tenants:
    - name: a
traffic:
  - name: ring
    pattern: allreduce-ring
    bytes: 131072
    iterations: 5
    compute: 1ms
  - name: small
    pattern: halo
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: submit_job
    tenant: a
    name: app
    pods: 2
    vni: "true"
  - at: 1s
    action: run_traffic
    tenant: a
    job: app
    traffic: ring
    as: first
  - at: 2s
    action: run_traffic
    tenant: a
    job: app
    traffic: ring
    as: second
assertions:
  - type: traffic_time_us
    target: first
    op: ">"
    value: 0
  - type: traffic_ratio
    target: second/first
    op: ">="
    value: 0.5
`)
	if len(sc.Traffic) != 2 {
		t.Fatalf("parsed %d traffic specs", len(sc.Traffic))
	}
	ring := sc.Traffic[0]
	if ring.Pattern != "allreduce-ring" || ring.Bytes != 131072 || ring.Iterations != 5 {
		t.Errorf("ring spec = %+v", ring)
	}
	if small := sc.Traffic[1]; small.Bytes != 65536 || small.Iterations != 10 {
		t.Errorf("defaults not applied: %+v", small)
	}
}

// TestValidateTrafficErrors walks the traffic-section failure modes; every
// error must be line-anchored and name the problem.
func TestValidateTrafficErrors(t *testing.T) {
	base := `
name: t
fleet:
  nodes: 2
  tenants:
    - name: a
`
	cases := []struct {
		name, src, want string
	}{
		{"unknown pattern", base + `traffic:
  - name: x
    pattern: token-ring
events:
  - at: 0s
    action: start_fleet
`, "unknown pattern"},
		{"missing name", base + `traffic:
  - pattern: halo
events:
  - at: 0s
    action: start_fleet
`, "needs a name"},
		{"duplicate name", base + `traffic:
  - name: x
    pattern: halo
  - name: x
    pattern: halo
events:
  - at: 0s
    action: start_fleet
`, "duplicate name"},
		{"unknown traffic ref", base + `events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: run_traffic
    tenant: a
    job: j
    traffic: nope
`, "unknown traffic"},
		{"duplicate run name", base + `traffic:
  - name: x
    pattern: halo
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: run_traffic
    tenant: a
    job: j
    traffic: x
  - at: 2s
    action: run_traffic
    tenant: a
    job: j
    traffic: x
`, "duplicate run name"},
		{"assertion unknown run", base + `events:
  - at: 0s
    action: start_fleet
assertions:
  - type: traffic_time_us
    target: ghost
    value: 1
`, "traffic run"},
		{"ratio needs two runs", base + `traffic:
  - name: x
    pattern: halo
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: run_traffic
    tenant: a
    job: j
    traffic: x
assertions:
  - type: traffic_ratio
    target: x
    value: 1
`, "two traffic runs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunTrafficEndToEnd drives a run_traffic event through a live fleet
// and checks the recorded report feeds the assertions.
func TestRunTrafficEndToEnd(t *testing.T) {
	res := Run(mustParse(t, `
name: traffic-e2e
fleet:
  nodes: 3
  tenants:
    - name: a
traffic:
  - name: ring
    pattern: allreduce-ring
    bytes: 8192
    iterations: 3
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: submit_job
    tenant: a
    name: app
    pods: 3
    runtime: 1h
    vni: "true"
  - at: 1s
    action: run_traffic
    tenant: a
    job: app
    traffic: ring
assertions:
  - type: traffic_time_us
    target: ring
    op: ">"
    value: 0
  - type: traffic_mpi_bytes
    target: ring
    value: 98304
  - type: traffic_global_bytes
    target: ring
    value: 0
`))
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if !res.Passed() {
		for _, a := range res.Asserts {
			t.Logf("%s", a)
		}
		t.Fatal("traffic scenario failed")
	}
}

// runAll runs an inline scenario and fails the test unless it completes
// with every assertion holding; it returns the narration.
func runAll(t *testing.T, src string) string {
	t.Helper()
	res := Run(mustParse(t, src))
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	for _, a := range res.Asserts {
		if !a.Pass {
			t.Errorf("%s", a)
		}
	}
	return strings.Join(res.Log, "\n")
}

// TestClaimFlow is the paper's Listing 2/3 flow, which no bundled scenario
// runs: two jobs redeem one VniClaim and share its VNI; deleting the claim
// stalls while they use it; once both are gone the VNI is released into
// quarantine.
func TestClaimFlow(t *testing.T) {
	const head = `
name: claim-flow
fleet:
  nodes: 2
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: create_claim
    tenant: a
    name: shared
  - at: 1s
    action: submit_job
    tenant: a
    name: j1
    pods: 2
    runtime: 1h
    vni: shared
  - at: 1s
    action: submit_job
    tenant: a
    name: j2
    runtime: 1h
    vni: shared
  - at: 1s
    action: wait_running
    tenant: a
    pods: 3
`
	runAll(t, head+`assertions:
  - type: vnis_allocated
    value: 1
  - type: pods_running
    target: a
    value: 3
  - type: sync_errors
    value: 0
`)
	const deleteClaim = `  - at: 2s
    action: delete_claim
    tenant: a
    name: shared
  - at: 3s
    action: run_for
    duration: 1s
`
	runAll(t, head+deleteClaim+`assertions:
  - type: vnis_allocated
    value: 1
  - type: pods_running
    target: a
    value: 3
`)
	log := runAll(t, head+deleteClaim+`  - at: 5s
    action: delete_job
    tenant: a
    name: j1
  - at: 5s
    action: delete_job
    tenant: a
    name: j2
  - at: 6s
    action: run_for
    duration: 2s
assertions:
  - type: vnis_allocated
    value: 0
  - type: vnis_quarantined
    value: 1
  - type: sync_errors
    value: 0
`)
	for _, want := range []string{"created claim a/shared", "deleted claim a/shared", "deleted job a/j2"} {
		if !strings.Contains(log, want) {
			t.Errorf("narration lacks %q:\n%s", want, log)
		}
	}
}

// TestCordonRemediateStaleReads runs the vocabulary no bundled scenario
// does: cordon and uncordon move nodes_cordoned, remediate drives a full
// operator-decreed run under a health: section, and stale_reads is a
// probe a fault-free run reads as 0.
func TestCordonRemediateStaleReads(t *testing.T) {
	log := runAll(t, `
name: vocabulary
fleet:
  nodes: 3
  tenants:
    - name: a
health:
  checkEvery: 100ms
  replaceDelay: 200ms
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: cordon
    target: node1
  - at: 1s
    action: uncordon
    target: node1
  - at: 2s
    action: remediate
    target: node2
  - at: 2s
    action: wait_remediated
assertions:
  - type: nodes_cordoned
    value: 0
  - type: remediations_done
    value: 1
  - type: stale_reads
    value: 0
`)
	for _, want := range []string{"cordoning node1", "uncordoning node1", "operator remediation of node2", "uncordoned node2"} {
		if !strings.Contains(log, want) {
			t.Errorf("narration lacks %q:\n%s", want, log)
		}
	}
	res := Run(mustParse(t, minimal+"  - at: 1s\n    action: cordon\n    target: node1\nassertions:\n  - type: nodes_cordoned\n    value: 1\n"))
	if !res.Passed() {
		t.Errorf("cordon did not leave one node cordoned: %v %v", res.Err, res.Asserts)
	}
}
