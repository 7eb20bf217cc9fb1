package fuzz

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// TestGeneratorCoversControlPlane checks the generator reaches the
// control-plane fault families: full outages, degraded windows, silent
// watch breaks — always paired with the convergence assertion that arms
// the eventual-convergence gate.
func TestGeneratorCoversControlPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		sc := Generate(rng, DefaultConfig())
		hasCP := false
		for _, ev := range sc.Events {
			switch ev.Action {
			case "fail_apiserver":
				seen["outage"] = true
				hasCP = true
			case "degrade_apiserver":
				seen["degrade"] = true
				hasCP = true
			case "break_watch":
				seen["break_watch"] = true
				hasCP = true
			case "recover_apiserver":
				seen["recover"] = true
			}
		}
		if hasCP {
			converged := false
			for _, a := range sc.Assertions {
				if a.Type == "cp_converged" {
					converged = true
				}
			}
			if !converged {
				t.Fatalf("spec %d injects control-plane chaos without a cp_converged assertion:\n%s",
					i, scenario.EmitYAML(sc))
			}
		}
	}
	for _, want := range []string{"outage", "degrade", "break_watch", "recover"} {
		if !seen[want] {
			t.Errorf("300 generated specs never exercised %q", want)
		}
	}
}

// lostWriteSpec is the minimal scenario for the convergence oracle's
// self-test: one job whose pod creation will be the swallowed write. No
// wait_running — a pod invisible to every informer is never scheduled, so
// waiting on it would time the run out before the check fires.
func lostWriteSpec(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc := &scenario.Scenario{Name: "lost-write-probe", Seed: 7}
	sc.Fleet = scenario.Fleet{
		Nodes: 2, VNIPoolMin: 1024, VNIPoolMax: 65535,
		Quarantine: 30 * time.Second,
		Tenants:    []scenario.Tenant{{Name: "t0"}},
	}
	sc.Events = []scenario.Event{
		{At: 0, Action: "start_fleet", Params: map[string]string{}},
		{At: 10 * time.Millisecond, Action: "submit_job", Params: map[string]string{
			"tenant": "t0", "name": "anchor", "pods": "2", "runtime": "1h"}},
		{At: 20 * time.Millisecond, Action: "run_for", Params: map[string]string{"duration": "500ms"}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("lost-write spec invalid: %v", err)
	}
	return sc
}

// runConvergenceProbe executes the spec with inject (when non-nil) applied
// to the live stack right after fleet start — the deliberately planted bug
// — drains the queue, and returns the convergence verdict.
func runConvergenceProbe(t *testing.T, inject func(st *stack.Stack)) *Violation {
	t.Helper()
	var vio *Violation
	hooks := scenario.Hooks{
		AfterEvent: func(st *stack.Stack, ev *scenario.Event) error {
			if ev.Action == "start_fleet" && inject != nil {
				inject(st)
			}
			return nil
		},
		AfterRun: func(st *stack.Stack, res *scenario.Result) {
			steps := 0
			for steps < maxDrainSteps && st.Eng.Step() {
				steps++
			}
			if st.Eng.Pending() > 0 {
				t.Fatalf("queue did not drain: %d pending", st.Eng.Pending())
			}
			vio = checkConvergence(st)
		},
	}
	res := scenario.RunHooked(lostWriteSpec(t), hooks)
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	return vio
}

// TestInjectedBugsCaught is the eventual-convergence oracle's self-test:
// the store-vs-cache diff is the only check that can see either planted
// bug, and must.
func TestInjectedBugsCaught(t *testing.T) {
	for name, tc := range map[string]struct {
		inject func(st *stack.Stack)
		detail string
	}{
		// A pod write committed to the store with its watch notification
		// swallowed is invisible to gap detection: the per-kind sequence
		// never advances.
		"lost write": {func(st *stack.Stack) {
			st.Cluster.Client.API().SetDebugLoseWrite(k8s.KindPod, 1)
		}, "Pod"},
		// Watch event objects are the informer cache's own, read-only by
		// contract; a handler that writes to one corrupts the cache under
		// an unchanged resource version.
		"mutating handler": {func(st *stack.Stack) {
			st.Cluster.Client.Watch(k8s.KindPod, k8s.WatchOptions{}, func(ev k8s.Event) {
				ev.Object.(*k8s.Pod).Status.Message = "scribbled by a handler"
			})
		}, "Pod cache diverged"},
	} {
		t.Run(name, func(t *testing.T) {
			vio := runConvergenceProbe(t, tc.inject)
			if vio == nil {
				t.Fatal("planted bug not caught by the convergence check")
			}
			if vio.Name != VioConvergence {
				t.Fatalf("wrong violation %q: %s", vio.Name, vio.Detail)
			}
			if !strings.Contains(vio.Detail, tc.detail) {
				t.Errorf("violation detail %q does not say %q", vio.Detail, tc.detail)
			}
		})
	}
}

// TestLostWriteSpecCleanWithoutBug pins the control: the same spec with
// nothing planted converges, so the oracle's signal above is the injected
// bug, not the spec.
func TestLostWriteSpecCleanWithoutBug(t *testing.T) {
	if vio := runConvergenceProbe(t, nil); vio != nil {
		t.Fatalf("expected convergence, got %s", vio)
	}
}
