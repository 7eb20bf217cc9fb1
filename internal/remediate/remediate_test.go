package remediate_test

import (
	"errors"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/health"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/remediate"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

func newStack(t *testing.T, nodes int) *stack.Stack {
	t.Helper()
	opts := stack.DefaultOptions()
	opts.Nodes = nodes
	opts.VNIService = false
	opts.Topology = fabric.DefaultTopologySpec()
	return stack.New(opts)
}

func healthLoop(s *stack.Stack, rcfg remediate.Config) (*health.Daemon, *remediate.Controller, *health.Counters) {
	counters := health.NewCounters()
	infos := make([]health.NodeInfo, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		infos = append(infos, health.NodeInfo{Name: n.Name, Addr: n.Device.Addr()})
	}
	d := health.New(s.Eng, health.DefaultConfig(), s.Cluster.Client, s.Topo, counters, infos)
	ctl := remediate.New(s.Eng, s.Cluster.Client, rcfg, remediate.Actions{
		Replace: func(node string) error {
			counters.Reset(node)
			d.NodeReplaced(node)
			return nil
		},
	})
	return d, ctl, counters
}

func nodeObj(t *testing.T, s *stack.Stack, name string) *k8s.Node {
	t.Helper()
	obj, ok := s.Cluster.Client.Get(k8s.KindNode, "", name)
	if !ok {
		t.Fatalf("node %s missing", name)
	}
	return obj.(*k8s.Node)
}

// TestFullCycle runs cordon → drain (evicting a running pod) → replace →
// uncordon end to end and checks the event order and final API state.
func TestFullCycle(t *testing.T) {
	s := newStack(t, 2)
	d, ctl, counters := healthLoop(s, remediate.DefaultConfig())
	var kinds []remediate.EventKind
	ctl.OnEvent(func(ev remediate.Event) { kinds = append(kinds, ev.Kind) })
	d.Start()

	// A long-running pod, scheduled normally, so the drain has work to do.
	pod := &k8s.Pod{
		Meta:   k8s.Meta{Kind: k8s.KindPod, Namespace: "default", Name: "victim"},
		Spec:   k8s.PodSpec{Image: "sleep", RunDuration: sim.Duration(time.Hour)},
		Status: k8s.PodStatus{Phase: k8s.PodPending},
	}
	s.Cluster.Client.Create(pod, nil)
	s.Eng.RunFor(sim.Duration(5 * time.Second))
	obj, ok := s.Cluster.Client.Get(k8s.KindPod, "default", "victim")
	if !ok || obj.(*k8s.Pod).Status.Phase != k8s.PodRunning {
		t.Fatalf("victim pod not running before drain")
	}
	victim := obj.(*k8s.Pod).Spec.NodeName
	if victim == "" {
		t.Fatal("victim pod not bound")
	}

	counters.AddErrors(victim, 1_000_000)
	s.Eng.RunFor(sim.Duration(10 * time.Second))

	want := []remediate.EventKind{
		remediate.RemediationQueued,
		remediate.DrainStarted,
		remediate.DrainCompleted,
		remediate.NodeReplaced,
		remediate.NodeUncordoned,
	}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	if _, ok := s.Cluster.Client.Get(k8s.KindPod, "default", "victim"); ok {
		t.Fatal("victim pod survived the drain")
	}
	node := nodeObj(t, s, victim)
	if node.Spec.Unschedulable {
		t.Fatalf("%s still cordoned after remediation", victim)
	}
	if node.Meta.Annotations[health.AnnotationReason] != "" {
		t.Fatal("reason annotation survived the uncordon")
	}
	if ctl.Done() != 1 || ctl.Active() != 0 || ctl.QueueLen() != 0 {
		t.Fatalf("done=%d active=%d queue=%d, want 1/0/0", ctl.Done(), ctl.Active(), ctl.QueueLen())
	}
}

// TestBudgetSerializes cordons two nodes with Budget=1 and expects the
// second remediation to queue until the first finishes — and both to
// complete.
func TestBudgetSerializes(t *testing.T) {
	s := newStack(t, 3)
	cfg := remediate.DefaultConfig()
	cfg.Budget = 1
	_, ctl, _ := healthLoop(s, cfg)
	var order []string
	ctl.OnEvent(func(ev remediate.Event) {
		if ev.Kind == remediate.DrainStarted {
			order = append(order, ev.Node)
		}
		if ev.Kind == remediate.DrainStarted && ctl.Active() != 1 {
			t.Fatalf("budget 1 but %d active at drain start", ctl.Active())
		}
	})

	if err := ctl.Remediate("node0"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Remediate("node1"); err != nil {
		t.Fatal(err)
	}
	s.Eng.RunFor(sim.Duration(10 * time.Second))

	// Watch-delivery jitter decides adoption order; what matters is that
	// both drained, one at a time.
	if len(order) != 2 || order[0] == order[1] {
		t.Fatalf("drain order = %v, want both of node0/node1 exactly once", order)
	}
	if ctl.Done() != 2 {
		t.Fatalf("done = %d, want 2", ctl.Done())
	}
	for _, n := range []string{"node0", "node1"} {
		if nodeObj(t, s, n).Spec.Unschedulable {
			t.Fatalf("%s still cordoned", n)
		}
	}
	if nodeObj(t, s, "node2").Spec.Unschedulable {
		t.Fatal("untouched node2 was cordoned")
	}
}

// TestReplaceRetryBackoff fails the replace action twice and expects
// retries with backoff, then success.
func TestReplaceRetryBackoff(t *testing.T) {
	s := newStack(t, 2)
	cfg := remediate.DefaultConfig()
	attempts := 0
	counters := health.NewCounters()
	ctl := remediate.New(s.Eng, s.Cluster.Client, cfg, remediate.Actions{
		Replace: func(node string) error {
			attempts++
			if attempts <= 2 {
				return errors.New("ipmi timeout")
			}
			counters.Reset(node)
			return nil
		},
	})
	if err := ctl.Remediate("node0"); err != nil {
		t.Fatal(err)
	}
	s.Eng.RunFor(sim.Duration(10 * time.Second))
	if attempts != 3 {
		t.Fatalf("replace attempts = %d, want 3", attempts)
	}
	if ctl.Done() != 1 {
		t.Fatalf("done = %d, want 1", ctl.Done())
	}
	if nodeObj(t, s, "node0").Spec.Unschedulable {
		t.Fatal("node0 still cordoned after retried replace")
	}
}

// TestReplaceExhaustsRetries keeps failing the action and expects the
// remediation to end in PhaseFailed with the node left cordoned.
func TestReplaceExhaustsRetries(t *testing.T) {
	s := newStack(t, 2)
	cfg := remediate.DefaultConfig()
	cfg.MaxRetries = 2
	ctl := remediate.New(s.Eng, s.Cluster.Client, cfg, remediate.Actions{
		Replace: func(string) error { return errors.New("dead bmc") },
	})
	var failed bool
	ctl.OnEvent(func(ev remediate.Event) {
		if ev.Kind == remediate.RemediationFailed {
			failed = true
		}
	})
	if err := ctl.Remediate("node1"); err != nil {
		t.Fatal(err)
	}
	s.Eng.RunFor(sim.Duration(30 * time.Second))
	if !failed {
		t.Fatal("no RemediationFailed event")
	}
	if !nodeObj(t, s, "node1").Spec.Unschedulable {
		t.Fatal("failed remediation uncordoned the node anyway")
	}
	snap := ctl.Snapshot()
	if len(snap) != 1 || snap[0].Phase != remediate.PhaseFailed {
		t.Fatalf("snapshot = %+v, want one failed run", snap)
	}
}

// TestRemediateUnknownNode expects a typed error, not a silent no-op.
func TestRemediateUnknownNode(t *testing.T) {
	s := newStack(t, 2)
	ctl := remediate.New(s.Eng, s.Cluster.Client, remediate.DefaultConfig(), remediate.Actions{})
	if err := ctl.Remediate("node99"); err == nil {
		t.Fatal("expected error for unknown node")
	}
}
