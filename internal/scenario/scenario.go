// Package scenario is the declarative workload layer over the simulated
// deployment: a scenario file describes a fleet (nodes, tenants, VNI pool),
// a timed event sequence (job submission, fault injection, churn,
// isolation probes) and end-state assertions (allocation counts, completed
// jobs, zero isolation violations, latency bounds). The engine drives
// internal/stack on the virtual internal/sim clock, so a multi-minute
// cluster scenario runs deterministically in milliseconds of wall time.
//
// Scenario files use the YAML subset internal/yamlsub parses — block
// mappings, "- " sequences, scalars and comments — so no dependency beyond
// the standard library is needed. schema.go declares every section key and
// scalar kind once, for the decoder and the emitter alike; actions.go and
// probes.go are the two catalogues: every event action and every assertion
// type, each declared in one place that validation, execution, the
// interactive prompt (internal/ctl) and docs/scenarios.md all follow.
// `shssim run`, `shssim validate` and `shssim list` (cmd/shssim) are the
// command-line front end.
package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/health"
	"github.com/caps-sim/shs-k8s/internal/remediate"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/telemetry"
	"github.com/caps-sim/shs-k8s/internal/workload"
	"github.com/caps-sim/shs-k8s/internal/yamlsub"
)

// Fleet describes the simulated deployment a scenario runs against. The
// topology is the paper's: one Rosetta switch with one Cassini NIC per
// node; tenants map to Kubernetes namespaces.
type Fleet struct {
	// Nodes is the worker count (default 2, the OpenCUBE pilot).
	Nodes int
	// VNIService installs the paper's integration (default true); false
	// runs the vni:false baseline.
	VNIService bool
	// VNIPoolMin/VNIPoolMax bound the allocatable VNI pool; shrinking the
	// pool is how exhaustion scenarios are built.
	VNIPoolMin, VNIPoolMax fabric.VNI
	// Quarantine is the VNI release quarantine (default 30s, the paper's).
	Quarantine sim.Duration
	// PodsPerNode is the scheduler's soft per-node pod budget: placement
	// avoids nodes at the budget while any node below it exists, which is
	// what pushes a job's pods across dragonfly groups under pressure.
	// 0 (default) disables the check.
	PodsPerNode int
	// Tenants are the namespaces workloads run in.
	Tenants []Tenant
}

// Tenant is one isolation domain (a Kubernetes namespace).
type Tenant struct {
	Name string
}

// Event is one timed scenario step.
type Event struct {
	// At is the virtual time offset from scenario start.
	At sim.Duration
	// Action names the step; see docs/scenarios.md for the catalogue.
	Action string
	// Target is the action's subject (a node for fault actions, a drop
	// reason for assertions); tenant-scoped actions use the tenant param.
	Target string
	// Params are the action's scalar parameters.
	Params map[string]string
	// Line anchors errors to the source file.
	Line int
}

// TrafficSpec is one named communication workload the traffic: section
// defines and run_traffic events execute against a job's gang of pods;
// docs/workloads.md documents the patterns and their cost models.
type TrafficSpec struct {
	// Name is the handle run_traffic events reference.
	Name string
	// Pattern is the collective (allreduce-ring, allreduce-rd, alltoall,
	// halo).
	Pattern string
	// Bytes is the per-call payload (default 65536).
	Bytes int
	// Iterations is the number of collective calls (default 10).
	Iterations int
	// Compute is simulated application compute between iterations.
	Compute sim.Duration
	// Fidelity is the fabric execution mode ("packet", "flow" or "hybrid";
	// "" means packet). See fabric.Fidelity and docs/performance.md.
	Fidelity string
	// Line anchors errors to the source file.
	Line int
}

// Workload converts the spec into the workload engine's form.
func (t TrafficSpec) Workload() workload.Spec {
	// Validate already vetted the string; an unknown name maps to the
	// packet default here.
	fid, _ := fabric.ParseFidelity(t.Fidelity)
	return workload.Spec{
		Pattern:    workload.Pattern(t.Pattern),
		Bytes:      t.Bytes,
		Iterations: t.Iterations,
		Compute:    t.Compute,
		Fidelity:   fid,
	}
}

// TelemetrySpec is the telemetry: section: when Interval is set, the run
// attaches a virtual-clock sampler (internal/telemetry) at fleet boot and —
// when Sink names a file — writes the collected series as JSONL when the
// run ends, failed or not. The zero value disables telemetry entirely, preserving the
// zero-cost-when-unused contract.
type TelemetrySpec struct {
	// Config is the sampler's own: sampleEvery is its Interval (> 0
	// enables telemetry), capacity its Capacity.
	telemetry.Config
	// Sink is the JSONL output path ("" keeps the series in memory for
	// telemetry_* assertions only). Relative paths resolve against the
	// working directory, as any CLI output path does.
	Sink string
}

// Enabled reports whether the scenario samples telemetry.
func (t TelemetrySpec) Enabled() bool { return t.Interval > 0 }

// HealthSpec is the health: section: when Daemon.Interval is set, the
// fleet boots with the autonomous health + remediation loop attached — the
// internal/health daemon polling NIC error counters and link state, and
// the internal/remediate controller draining, replacing and uncordoning
// what the daemon cordons. The zero value disables the loop entirely;
// scenarios without this section draw exactly the same random-number
// stream as before the loop existed (the daemon and controller install
// watches and timers only when constructed). A key left out is a zero
// field, which the package's DefaultConfig fills in.
type HealthSpec struct {
	// Daemon tunes detection; its Interval (checkEvery) enables the loop.
	Daemon health.Config
	// Remediate tunes the drain → replace → uncordon state machine.
	Remediate remediate.Config
}

// Enabled reports whether the scenario runs the health loop.
func (h HealthSpec) Enabled() bool { return h.Daemon.Interval > 0 }

// Assertion is one end-state check evaluated after all events ran.
type Assertion struct {
	// Type names the probed quantity (vnis_allocated, jobs_completed,
	// isolation_violations, latency_us, ...).
	Type string
	// Target scopes the probe: a tenant for job counts, a drop reason for
	// switch_drops, a statistic (p50, p90, p99, max, mean) for latency_us.
	Target string
	// Op compares actual to Value: ==, !=, <, <=, >, >= (default ==).
	Op string
	// Value is the expected number (true/false allowed for boolean types).
	Value string
	// Line anchors errors and failure reports to the source file.
	Line int
}

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string
	// Seed feeds the deterministic simulation engine (default 1).
	Seed  int64
	Fleet Fleet
	// Topology shapes the fabric (dragonfly groups, switches per group,
	// NIC striping, global-link overrides); the zero value is the
	// paper's single-switch fabric.
	Topology fabric.TopologySpec
	// Traffic holds the named communication workloads run_traffic events
	// execute.
	Traffic []TrafficSpec
	// Telemetry configures the time-series sampler; the zero value means
	// no sampling.
	Telemetry TelemetrySpec
	// Health configures the autonomous health + remediation loop; the
	// zero value means no loop.
	Health     HealthSpec
	Events     []Event
	Assertions []Assertion
	// Path is the source file, "" when parsed from a reader.
	Path string
}

// ErrSyntax wraps structural parse failures; every one names the 1-based
// line it is anchored to.
var ErrSyntax = yamlsub.ErrSyntax

// errAt builds an error anchored to a source line. Line 0 is an event with
// no source — typed at the interactive prompt or built by the fuzzer — and
// gets no position prefix.
func (sc *Scenario) errAt(line int, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if line == 0 {
		return errors.New(msg)
	}
	return fmt.Errorf("%s: %s", sc.where(line), msg)
}

// where names a source position: "file.yaml:12", or "scenario:12" for a
// spec parsed from a reader.
func (sc *Scenario) where(line int) string {
	if sc.Path == "" {
		return "scenario:" + strconv.Itoa(line)
	}
	return sc.Path + ":" + strconv.Itoa(line)
}

// Parse reads and validates a scenario from r.
func Parse(r io.Reader) (*Scenario, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parse(src, "")
}

// ParseFile reads and validates a scenario file.
func ParseFile(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(src, path)
}

func parse(src []byte, path string) (*Scenario, error) {
	docs, err := yamlsub.ParseDocs(src)
	switch {
	case err != nil:
	case len(docs) == 0:
		err = fmt.Errorf("%w: line 1: empty document", ErrSyntax)
	case len(docs) > 1:
		err = fmt.Errorf("%w: line %d: a scenario file holds one document", ErrSyntax, docs[1].Line)
	}
	if err != nil {
		if path != "" {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return nil, err
	}
	sc := defaults
	sc.Path = path
	if err := decodeFields(&sc, docs[0], "scenario", topFields, &sc, decodeSection); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// defaults is what Parse starts from and therefore what EmitYAML expresses
// by omission: the paper's two-node pilot on a single switch.
var defaults = Scenario{
	Seed: 1,
	Fleet: Fleet{
		Nodes:      2,
		VNIService: true,
		VNIPoolMin: 1024,
		VNIPoolMax: 65535,
		Quarantine: 30 * time.Second,
	},
	Topology: fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 1, GlobalLinksPerPair: 1},
}

// Validate checks the scenario against the schema: known actions with
// complete parameters, resolvable targets, well-formed assertions. It is
// what `shssim validate` runs; Parse calls it automatically.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return sc.errAt(1, "scenario needs a name")
	}
	fl := &sc.Fleet
	if fl.VNIPoolMax < fl.VNIPoolMin {
		return sc.errAt(1, "fleet: vniPoolMax %d below vniPoolMin %d", fl.VNIPoolMax, fl.VNIPoolMin)
	}
	topo, err := sc.Topology.Normalize()
	if err != nil {
		return sc.errAt(1, "topology: %v", err)
	}
	sc.Topology = topo
	for i := range fl.Tenants {
		if sc.tenant(fl.Tenants[i].Name) != &fl.Tenants[i] {
			return sc.errAt(1, "fleet: duplicate tenant %q", fl.Tenants[i].Name)
		}
	}
	if len(sc.Events) == 0 {
		return sc.errAt(1, "scenario needs at least one event")
	}
	if sc.Events[0].Action != "start_fleet" {
		return sc.errAt(sc.Events[0].Line, "first event must be start_fleet, got %q", sc.Events[0].Action)
	}
	for i := 1; i < len(sc.Events); i++ {
		if sc.Events[i].At < sc.Events[i-1].At {
			return sc.errAt(sc.Events[i].Line, "events must be ordered by time: %v after %v",
				sc.Events[i].At, sc.Events[i-1].At)
		}
		if sc.Events[i].Action == "start_fleet" {
			return sc.errAt(sc.Events[i].Line, "start_fleet must appear exactly once, first")
		}
	}
	for i := range sc.Traffic {
		ts := &sc.Traffic[i]
		if ts.Name == "" {
			return sc.errAt(ts.Line, "traffic: entry needs a name")
		}
		if sc.traffic(ts.Name) != ts {
			return sc.errAt(ts.Line, "traffic: duplicate name %q", ts.Name)
		}
		// Workload() maps unknown fidelity names to the packet default, so
		// vet the string here (it also covers specs built programmatically,
		// e.g. by the fuzzer's generator).
		if _, err := fabric.ParseFidelity(ts.Fidelity); err != nil {
			return sc.errAt(ts.Line, "traffic %q: %v", ts.Name, err)
		}
		if err := ts.Workload().Validate(); err != nil {
			return sc.errAt(ts.Line, "traffic %q: %v", ts.Name, err)
		}
	}
	for i := range sc.Events {
		ev := &sc.Events[i]
		if err := sc.CheckEvent(ev); err != nil {
			return err
		}
		// Each run_traffic event produces one named report; traffic_*
		// assertions probe them by that name.
		if ev.Action == "run_traffic" && sc.run(runName(ev)) != ev {
			return sc.errAt(ev.Line, "run_traffic: duplicate run name %q (use as to disambiguate)", runName(ev))
		}
	}
	for i := range sc.Assertions {
		if err := sc.checkAssertion(&sc.Assertions[i]); err != nil {
			return err
		}
	}
	return nil
}

// tenant returns the first fleet tenant called name, or nil.
func (sc *Scenario) tenant(name string) *Tenant {
	return lookup(sc.Fleet.Tenants, name, func(t *Tenant) string { return t.Name })
}

// traffic returns the first traffic: entry called name, or nil.
func (sc *Scenario) traffic(name string) *TrafficSpec {
	return lookup(sc.Traffic, name, func(t *TrafficSpec) string { return t.Name })
}

// runName is the name a run_traffic event records its report under: the as
// parameter, defaulting to the traffic name.
func runName(ev *Event) string {
	if as := ev.Params["as"]; as != "" {
		return as
	}
	return ev.Params["traffic"]
}

// run returns the first run_traffic event recording under name, or nil.
func (sc *Scenario) run(name string) *Event {
	for i := range sc.Events {
		if ev := &sc.Events[i]; ev.Action == "run_traffic" && runName(ev) == name {
			return ev
		}
	}
	return nil
}

func (sc *Scenario) validNode(name string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(name, "node"))
	return err == nil && n >= 0 && n < sc.Fleet.Nodes && name == "node"+strconv.Itoa(n)
}

// splitList splits a comma-separated parameter into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// indexPair reads an event's "i,j" parameter as two distinct indices below
// limit. Validation and execution both go through it, so the pair an event
// runs against is the pair that was checked.
func (sc *Scenario) indexPair(ev *Event, name string, limit int, what string) (i, j int, err error) {
	parts := splitList(ev.Params[name])
	if len(parts) != 2 {
		return 0, 0, sc.errAt(ev.Line, "%s: %s must be two comma-separated indices, got %q", ev.Action, name, ev.Params[name])
	}
	var idx [2]int
	for k, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n >= limit {
			return 0, 0, sc.errAt(ev.Line, "%s: %s: %q is not a valid %s index (fabric has %d)",
				ev.Action, name, p, what, limit)
		}
		idx[k] = n
	}
	if idx[0] == idx[1] {
		return 0, 0, sc.errAt(ev.Line, "%s: %s: indices must differ", ev.Action, name)
	}
	return idx[0], idx[1], nil
}

// trunk reads an event's switches parameter as the two ends of an
// intra-group trunk.
func (sc *Scenario) trunk(ev *Event) (i, j int, err error) {
	per := sc.Topology.SwitchesPerGroup
	i, j, err = sc.indexPair(ev, "switches", sc.Topology.Groups*per, "switch")
	if err == nil && i/per != j/per {
		err = sc.errAt(ev.Line, "%s: switches %d and %d are in different groups (a trunk joins two switches of one group; global links go by groups)",
			ev.Action, i, j)
	}
	return i, j, err
}
