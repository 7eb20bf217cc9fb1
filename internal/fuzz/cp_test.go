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

// runControlPlaneProbe executes the spec with inject (when non-nil) applied
// to the live stack right after fleet start — the deliberately planted bug
// — drains the queue, and returns the first control-plane verdict: the
// convergence check, then the immutability oracle, as Execute orders them.
func runControlPlaneProbe(t *testing.T, inject func(st *stack.Stack)) *Violation {
	t.Helper()
	var vio *Violation
	hooks := scenario.Hooks{
		AfterEvent: func(st *stack.Stack, ev *scenario.Event) error {
			st.Cluster.Client.RecordCommits()
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
			if vio = checkConvergence(st); vio == nil {
				vio = checkImmutability(st)
			}
		},
	}
	res := scenario.RunHooked(lostWriteSpec(t), hooks)
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	return vio
}

// TestInjectedBugsCaught is the self-test of the two control-plane oracles.
// The store-vs-cache diff is the only check that can see a lost write; the
// commit recorder is the only one that can see a write to a committed
// object — cache and store share it, so they never disagree about it — and
// must name the object written, whichever way the writer reached it.
func TestInjectedBugsCaught(t *testing.T) {
	const anchorPod = "Pod t0/anchor-0 rv"
	for name, tc := range map[string]struct {
		inject  func(st *stack.Stack)
		vio     string
		details []string
	}{
		// A pod write committed to the store with its watch notification
		// swallowed is invisible to gap detection: the per-kind sequence
		// never advances.
		"lost write": {func(st *stack.Stack) {
			st.Cluster.Client.API().SetDebugLoseWrite(k8s.KindPod, 1)
		}, VioConvergence, []string{"Pod"}},
		// A watch handler that writes to its event object.
		"mutating handler": {func(st *stack.Stack) {
			st.Cluster.Client.Watch(k8s.KindPod, k8s.WatchOptions{}, func(ev k8s.Event) {
				if ev.Object.GetMeta().Name == "anchor-0" {
					ev.Object.(*k8s.Pod).Status.Message = "scribbled by a handler"
				}
			})
		}, VioImmutability, []string{anchorPod, "written after commit"}},
		// A caller that edits what a live read returned instead of a Clone.
		"write through Get": {func(st *stack.Stack) {
			cli := st.Cluster.Client
			cli.Watch(k8s.KindPod, k8s.WatchOptions{}, func(ev k8s.Event) {
				if obj, ok := cli.Get(k8s.KindPod, "t0", "anchor-0"); ok {
					obj.(*k8s.Pod).Spec.HostNetwork = true
				}
			})
		}, VioImmutability, []string{anchorPod, "written after commit"}},
		// A Patch mutator that is handed a Clone and writes into the map the
		// Clone still shares with every committed version of the pod.
		"Patch writes a shared map": {func(st *stack.Stack) {
			cli := st.Cluster.Client
			patched := false
			cli.Watch(k8s.KindPod, k8s.WatchOptions{}, func(ev k8s.Event) {
				if patched || ev.Object.GetMeta().Name != "anchor-0" {
					return
				}
				patched = true
				cli.Patch(k8s.KindPod, "t0", "anchor-0", k8s.MutateFunc(func(obj k8s.Object) bool {
					obj.GetMeta().Labels["scribbled"] = "by a mutator"
					return true
				}))
			})
		}, VioImmutability, []string{anchorPod, "written after commit"}},
	} {
		t.Run(name, func(t *testing.T) {
			vio := runControlPlaneProbe(t, tc.inject)
			if vio == nil {
				t.Fatal("planted bug not caught")
			}
			if vio.Name != tc.vio {
				t.Fatalf("violation %q, want %q: %s", vio.Name, tc.vio, vio.Detail)
			}
			for _, want := range tc.details {
				if !strings.Contains(vio.Detail, want) {
					t.Errorf("violation detail %q does not say %q", vio.Detail, want)
				}
			}
		})
	}
}

// TestLostWriteSpecCleanWithoutBug pins the control: the same spec with
// nothing planted converges and nothing is written after commit, so the
// oracles' signal above is the injected bug, not the spec.
func TestLostWriteSpecCleanWithoutBug(t *testing.T) {
	if vio := runControlPlaneProbe(t, nil); vio != nil {
		t.Fatalf("expected a clean run, got %s", vio)
	}
}
