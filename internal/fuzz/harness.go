package fuzz

import (
	"errors"
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

// maxDrainSteps bounds the end-of-run queue drain. Nothing in the simulator
// self-reschedules forever, so a healthy run drains in well under this; a
// run that does not is reported as VioStuck rather than hanging the fuzzer.
const maxDrainSteps = 5_000_000

// Report is the outcome of Execute on one spec.
type Report struct {
	Spec *scenario.Scenario
	// Result is the first run's scenario result.
	Result *scenario.Result
	// Violations lists every broken invariant, in detection order.
	Violations []Violation
}

// Violation returns the first violation with the given name, or nil.
func (r *Report) Violation(name string) *Violation {
	for i := range r.Violations {
		if r.Violations[i].Name == name {
			return &r.Violations[i]
		}
	}
	return nil
}

func (r *Report) add(v Violation) { r.Violations = append(r.Violations, v) }

// fingerprint captures everything observable about a finished run. Two runs
// of the same spec at the same seed must produce identical fingerprints;
// the determinism oracle compares them field by field.
type fingerprint struct {
	SimTime sim.Time
	Logs    []string
	Asserts []string
	// Topo is the fabric-wide counter snapshot (fmt prints the drop map in
	// sorted key order, so the rendering is itself deterministic).
	Topo  string
	Links []string
	DB    vnidb.Stats
}

// diff names the first field where two fingerprints disagree, or "" when
// they match.
func (a *fingerprint) diff(b *fingerprint) string {
	switch {
	case a == nil || b == nil:
		if a == b {
			return ""
		}
		return "one run produced no fingerprint (violation aborted it)"
	case a.SimTime != b.SimTime:
		return fmt.Sprintf("virtual end time: %s vs %s", a.SimTime, b.SimTime)
	case len(a.Logs) != len(b.Logs):
		return fmt.Sprintf("log length: %d vs %d lines", len(a.Logs), len(b.Logs))
	case a.Topo != b.Topo:
		return fmt.Sprintf("fabric counters: %s vs %s", a.Topo, b.Topo)
	case a.DB != b.DB:
		return fmt.Sprintf("vni pool: %+v vs %+v", a.DB, b.DB)
	}
	for i := range a.Logs {
		if a.Logs[i] != b.Logs[i] {
			return fmt.Sprintf("log line %d: %q vs %q", i, a.Logs[i], b.Logs[i])
		}
	}
	if len(a.Asserts) != len(b.Asserts) {
		return fmt.Sprintf("assertion count: %d vs %d", len(a.Asserts), len(b.Asserts))
	}
	for i := range a.Asserts {
		if a.Asserts[i] != b.Asserts[i] {
			return fmt.Sprintf("assertion %d: %q vs %q", i, a.Asserts[i], b.Asserts[i])
		}
	}
	if len(a.Links) != len(b.Links) {
		return fmt.Sprintf("link count: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return fmt.Sprintf("link %d: %q vs %q", i, a.Links[i], b.Links[i])
		}
	}
	return ""
}

func fingerprintOf(st *stack.Stack, res *scenario.Result) *fingerprint {
	fp := &fingerprint{
		SimTime: st.Eng.Now(),
		Logs:    append([]string(nil), res.Log...),
		Topo:    fmt.Sprintf("%+v", st.Topo.Stats()),
		DB:      st.DB.Stats(),
	}
	for _, a := range res.Asserts {
		fp.Asserts = append(fp.Asserts, a.String())
	}
	for _, l := range st.Topo.Links() {
		fp.Links = append(fp.Links, fmt.Sprintf("%d->%d %s down=%v fwd=%d bytes=%d drops=%d",
			l.ID.From, l.ID.To, l.Kind, l.Down, l.Stats.Forwarded, l.Stats.Bytes, l.Stats.Drops))
	}
	return fp
}

// Execute runs one spec under the full invariant battery:
//
//   - after every event: event-arena integrity (which subsumes the
//     monotonic-clock check) and the differential routing oracle — the
//     per-event cadence matters, because a transiently stale route can
//     heal when a link recovers and be invisible at end of run;
//   - at end of run: drain the event queue under a step budget (stuck
//     detection), then re-check integrity and routing and verify packet
//     and byte conservation per switch and fabric-wide; on specs with a
//     health: section, additionally verify the remediation loop quiesced
//     (no node left cordoned, scheduler and API cordon views agree); then
//     verify control-plane eventual convergence — every informer cache
//     identical to the API server's store (no lost writes, no silently
//     dropped watch deliveries) — and immutability: no API object changed
//     after its commit (the recorder is armed when the fleet starts);
//   - then the whole run repeats and both fingerprints must match
//     (determinism oracle).
//
// A clean Execute returns a Report with no Violations.
func Execute(sc *scenario.Scenario) *Report {
	rep := &Report{Spec: sc}
	fp1 := runOnce(sc, rep)
	if len(rep.Violations) > 0 {
		return rep
	}
	rep2 := &Report{Spec: sc}
	fp2 := runOnce(sc, rep2)
	if len(rep2.Violations) > 0 {
		// The same spec violated only on the second run: that is already
		// nondeterminism, but surface the underlying violation too.
		rep.Violations = append(rep.Violations, rep2.Violations...)
		rep.add(Violation{Name: VioNondeterminism,
			Detail: "second run broke invariants the first run upheld"})
		return rep
	}
	if d := fp1.diff(fp2); d != "" {
		rep.add(Violation{Name: VioNondeterminism,
			Detail: "same spec, same seed, different outcome: " + d})
	}
	return rep
}

// runOnce executes the spec once, appending violations to rep and returning
// the run's fingerprint (nil when a violation aborted the run before the
// end-of-run checks).
func runOnce(sc *scenario.Scenario, rep *Report) *fingerprint {
	var fp *fingerprint
	hooks := scenario.Hooks{
		AfterEvent: func(st *stack.Stack, ev *scenario.Event) error {
			st.Cluster.Client.RecordCommits() // armed by the first event, start_fleet
			if v := checkSim(st); v != nil {
				rep.add(*v)
				return errors.New(v.Detail)
			}
			if v := checkRouting(st); v != nil {
				rep.add(*v)
				return errors.New(v.Detail)
			}
			return nil
		},
		AfterRun: func(st *stack.Stack, res *scenario.Result) {
			steps := 0
			for steps < maxDrainSteps && st.Eng.Step() {
				steps++
			}
			if st.Eng.Pending() > 0 {
				rep.add(Violation{Name: VioStuck, Detail: fmt.Sprintf(
					"event queue still holds %d event(s) after %d drain steps at %s",
					st.Eng.Pending(), steps, st.Eng.Now())})
				return
			}
			if v := checkSim(st); v != nil {
				rep.add(*v)
				return
			}
			if v := checkRouting(st); v != nil {
				rep.add(*v)
				return
			}
			if v := checkConservation(st); v != nil {
				rep.add(*v)
				return
			}
			if sc.Health.Enabled() {
				if v := checkRemediation(st); v != nil {
					rep.add(*v)
					return
				}
			}
			if v := checkConvergence(st); v != nil {
				rep.add(*v)
				return
			}
			if v := checkImmutability(st); v != nil {
				rep.add(*v)
				return
			}
			fp = fingerprintOf(st, res)
		},
	}
	res := scenario.RunHooked(sc, hooks)
	if rep.Result == nil {
		rep.Result = res
	}
	if len(rep.Violations) == 0 {
		if res.Err != nil {
			rep.add(Violation{Name: VioRunError, Detail: res.Err.Error()})
		} else if !res.Passed() {
			for _, a := range res.Asserts {
				if !a.Pass {
					rep.add(Violation{Name: VioAssertion, Detail: a.String()})
					break
				}
			}
		}
	}
	return fp
}
