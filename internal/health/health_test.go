package health_test

import (
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/health"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

func newStack(t *testing.T, nodes int, spec fabric.TopologySpec) *stack.Stack {
	t.Helper()
	opts := stack.DefaultOptions()
	opts.Nodes = nodes
	opts.VNIService = false
	opts.Topology = spec
	return stack.New(opts)
}

func daemonOver(s *stack.Stack, cfg health.Config, counters *health.Counters) *health.Daemon {
	infos := make([]health.NodeInfo, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		infos = append(infos, health.NodeInfo{Name: n.Name, Addr: n.Device.Addr()})
	}
	return health.New(s.Eng, cfg, s.Cluster.Client, s.Topo, counters, infos)
}

// TestSlowDrainCordons drives a sustained error rate on one node's NIC
// and expects the daemon to degrade then cordon it through the client,
// leaving the other node untouched.
func TestSlowDrainCordons(t *testing.T) {
	s := newStack(t, 2, fabric.DefaultTopologySpec())
	counters := health.NewCounters()
	cfg := health.DefaultConfig()
	d := daemonOver(s, cfg, counters)

	var events []health.Event
	d.OnEvent(func(ev health.Event) { events = append(events, ev) })
	d.Start()

	// 100 errors per 10ms = 10_000 errors/s, far over the 50/s threshold.
	stop := s.Eng.Now().Add(sim.Duration(2 * time.Second))
	var inject func()
	inject = func() {
		if s.Eng.Now() >= stop {
			return
		}
		counters.AddErrors("node0", 100)
		s.Eng.After(sim.Duration(10*time.Millisecond), inject)
	}
	s.Eng.After(0, inject)
	s.Eng.RunFor(sim.Duration(3 * time.Second))

	var sawDegraded, sawCordoned bool
	for _, ev := range events {
		switch ev.Kind {
		case health.NodeDegraded:
			sawDegraded = true
			if ev.Node != "node0" {
				t.Fatalf("degraded %q, want node0", ev.Node)
			}
		case health.NodeCordoned:
			sawCordoned = true
		}
	}
	if !sawDegraded || !sawCordoned {
		t.Fatalf("events = %v, want degraded then cordoned", events)
	}

	obj, ok := s.Cluster.Client.Get(k8s.KindNode, "", "node0")
	if !ok {
		t.Fatal("node0 missing")
	}
	node := obj.(*k8s.Node)
	if !node.Spec.Unschedulable {
		t.Fatal("node0 not cordoned in the API")
	}
	if node.Meta.Annotations[health.AnnotationReason] == "" {
		t.Fatal("cordoned node carries no reason annotation")
	}
	if obj, _ := s.Cluster.Client.Get(k8s.KindNode, "", "node1"); obj.(*k8s.Node).Spec.Unschedulable {
		t.Fatal("healthy node1 was cordoned")
	}

	ns, _ := d.Snapshot()
	for _, n := range ns {
		want := health.NodeHealthy
		if n.Name == "node0" {
			want = health.NodeCordonedState
		}
		if n.State != want {
			t.Fatalf("snapshot %s = %v, want %v", n.Name, n.State, want)
		}
	}
}

// TestPortDownCordons treats an administratively downed NIC port as a
// hard fault: cordon within DegradeTicks polls, no error counters
// involved.
func TestPortDownCordons(t *testing.T) {
	s := newStack(t, 2, fabric.DefaultTopologySpec())
	d := daemonOver(s, health.DefaultConfig(), health.NewCounters())
	var cordonAt sim.Time
	d.OnEvent(func(ev health.Event) {
		if ev.Kind == health.NodeCordoned {
			cordonAt = ev.Time
		}
	})
	d.Start()

	start := s.Eng.Now()
	if err := s.FailNIC("node1"); err != nil {
		t.Fatal(err)
	}
	s.Eng.RunFor(sim.Duration(time.Second))
	if cordonAt == 0 {
		t.Fatal("port-down node never cordoned")
	}
	detect := cordonAt.Sub(start)
	// DegradeTicks=2 at a 100ms interval: detection lands on the second
	// poll, ≤ 300ms after the fault even with tick phase.
	if detect > sim.Duration(300*time.Millisecond) {
		t.Fatalf("detect latency %v, want <= 300ms", detect)
	}
}

// TestFlapDetection expects a flapping trunk to be flagged on its
// second transition and cleared after the stable window, while a single
// clean failure never trips the detector.
func TestFlapDetection(t *testing.T) {
	spec := fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 2, NodesPerSwitch: 1}
	s := newStack(t, 2, spec)
	d := daemonOver(s, health.DefaultConfig(), health.NewCounters())
	var flaps, recovers []health.Event
	d.OnEvent(func(ev health.Event) {
		switch ev.Kind {
		case health.LinkFlapping:
			flaps = append(flaps, ev)
		case health.LinkRecovered:
			recovers = append(recovers, ev)
		}
	})
	d.Start()

	// Three down/up cycles, 150ms per half-period.
	half := sim.Duration(150 * time.Millisecond)
	for i := 0; i < 3; i++ {
		at := sim.Duration(2*i) * half
		s.Eng.After(at, func() { s.Topo.SetTrunkDown(0, 1, true) })
		s.Eng.After(at+half, func() { s.Topo.SetTrunkDown(0, 1, false) })
	}
	s.Eng.RunFor(sim.Duration(5 * time.Second))

	if len(flaps) != 1 {
		t.Fatalf("flap events = %d, want exactly 1 (latched)", len(flaps))
	}
	if flaps[0].Link != "trunk:0-1" {
		t.Fatalf("flagged link %q, want trunk:0-1", flaps[0].Link)
	}
	if len(recovers) != 1 {
		t.Fatalf("recover events = %d, want 1", len(recovers))
	}
	if recovers[0].Time <= flaps[0].Time {
		t.Fatal("recovery before detection")
	}

	// A clean single failure on a fresh stack must not trip the detector.
	s2 := newStack(t, 2, spec)
	d2 := daemonOver(s2, health.DefaultConfig(), health.NewCounters())
	tripped := false
	d2.OnEvent(func(ev health.Event) {
		if ev.Kind == health.LinkFlapping {
			tripped = true
		}
	})
	d2.Start()
	s2.Topo.SetTrunkDown(0, 1, true)
	s2.Eng.RunFor(sim.Duration(2 * time.Second))
	if tripped {
		t.Fatal("single clean failure flagged as flapping")
	}
}

// TestNodeReplacedRebaselines expects NodeReplaced to clear daemon state
// so a remediated node is not immediately re-cordoned.
func TestNodeReplacedRebaselines(t *testing.T) {
	s := newStack(t, 2, fabric.DefaultTopologySpec())
	counters := health.NewCounters()
	d := daemonOver(s, health.DefaultConfig(), counters)
	cordons := 0
	d.OnEvent(func(ev health.Event) {
		if ev.Kind == health.NodeCordoned {
			cordons++
		}
	})
	d.Start()

	counters.AddErrors("node0", 1_000_000)
	s.Eng.RunFor(sim.Duration(time.Second))
	if cordons != 1 {
		t.Fatalf("cordons = %d, want 1", cordons)
	}

	// Remediation: counter reset + rebaseline; uncordon is the
	// remediate controller's job, here we only check the daemon side.
	counters.Reset("node0")
	d.NodeReplaced("node0")
	s.Eng.RunFor(sim.Duration(2 * time.Second))
	if cordons != 1 {
		t.Fatalf("replaced node re-cordoned (cordons = %d)", cordons)
	}
	ns, _ := d.Snapshot()
	if ns[0].State != health.NodeHealthy {
		t.Fatalf("node0 state %v after replace, want healthy", ns[0].State)
	}
}
