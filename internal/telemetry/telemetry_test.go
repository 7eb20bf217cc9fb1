package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// sampledRun boots a 2-group fleet, attaches a sampler, drives an
// alltoall across both groups and returns the JSONL export — the
// determinism probe: everything in the series derives from the virtual
// clock and seeded jitter, so equal seeds must yield equal bytes.
func sampledRun(t *testing.T, seed int64) []byte {
	t.Helper()
	opts := stack.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 8
	opts.Topology = fabric.TopologySpec{
		Groups: 2, SwitchesPerGroup: 1, NodesPerSwitch: 4,
		GlobalLinkBandwidthBits: 20e9,
	}
	st := stack.New(opts)

	var doms []*libfabric.Domain
	for rank, n := range []int{0, 2, 4, 6} {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("tele-rank%d", rank), 1000, 1000, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: st.Nodes[n].Device, Caller: proc.PID, VNI: 1, TC: fabric.TCDedicated})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		t.Fatal(err)
	}

	spec := workload.Spec{Pattern: workload.Alltoall, Bytes: 64 << 10, Iterations: 8}
	var done, total int
	s := New(st.Eng, Config{Interval: 50 * time.Microsecond})
	s.Attach(Sources{
		Stack:    st,
		Progress: func() (int, int) { return done, total },
	})
	total = spec.Iterations
	finished := false
	err = workload.RunProgress(st.Eng, comm, st.Topo, spec,
		func(iter int) { done = iter },
		func(workload.Report) { finished = true })
	if err != nil {
		t.Fatal(err)
	}
	// The sampler tick is perpetual, so drive by deadline, not to empty.
	// (stack.New has already advanced the clock through fleet boot, hence
	// the relative deadline.)
	st.Eng.RunUntilDone(func() bool { return finished }, st.Eng.Now().Add(10*time.Second))
	if !finished {
		t.Fatal("workload never completed")
	}
	st.Eng.RunFor(100 * time.Microsecond) // a few post-run samples
	s.Detach()

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Len() < 3 {
		t.Fatalf("only %d samples collected", s.Len())
	}
	if s.PeakLinkUtilization() <= 0 {
		t.Error("peak link utilization never rose above zero")
	}
	return buf.Bytes()
}

// TestJSONLDeterministic is the acceptance criterion: two same-seed runs
// produce byte-identical series.
func TestJSONLDeterministic(t *testing.T) {
	a := sampledRun(t, 7)
	b := sampledRun(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed telemetry diverged:\nrun1 %d bytes\nrun2 %d bytes", len(a), len(b))
	}
	if c := sampledRun(t, 8); bytes.Equal(a, c) {
		t.Error("different seeds produced identical telemetry; jitter not reaching series")
	}
}

// TestDetachedSamplerZeroAlloc guards PR 5's zero-alloc event core: with a
// sampler constructed but detached, steady-state scheduling still costs 0
// allocs/op — telemetry is strictly pay-for-use.
func TestDetachedSamplerZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, Config{Interval: time.Millisecond, Capacity: 16})
	s.Attach(Sources{})
	eng.RunFor(3 * time.Millisecond)
	s.Detach()
	eng.Run() // drain: the cancelled tick must not keep the queue alive
	if got := eng.Pending(); got != 0 {
		t.Fatalf("detached sampler left %d events pending", got)
	}

	fn := func() {}
	// Warm the arena so growth doesn't count as steady-state cost.
	eng.After(time.Microsecond, fn)
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(time.Microsecond, fn)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("scheduling with detached sampler costs %.1f allocs/op, want 0", allocs)
	}
}

// TestRingOverflow checks the bounded ring: oldest samples fall off, the
// survivors stay chronological, and Taken keeps the true count.
func TestRingOverflow(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, Config{Interval: 10 * time.Microsecond, Capacity: 4})
	s.Attach(Sources{})
	eng.RunFor(90 * time.Microsecond) // samples at 0,10,...,90 → 10 taken
	s.Detach()

	if s.Taken() != 10 {
		t.Fatalf("Taken = %d, want 10", s.Taken())
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", s.Len())
	}
	got := s.Samples()
	for i, sm := range got {
		want := int64(60 + 10*i) // the last four ticks
		if sm.TimeUS != want {
			t.Errorf("sample %d at t=%dus, want %dus", i, sm.TimeUS, want)
		}
	}
	if l := s.Latest(); l == nil || l.TimeUS != 90 {
		t.Errorf("Latest = %+v, want t=90us", l)
	}
}

// TestAttachSamplesImmediately: Attach takes a t=now sample before the
// first tick, and Detach stops the series.
func TestAttachSamplesImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, Config{Interval: time.Millisecond})
	eng.RunFor(5 * time.Millisecond)
	s.Attach(Sources{})
	if s.Len() != 1 || s.Latest().TimeUS != 5000 {
		t.Fatalf("attach did not sample immediately: len=%d", s.Len())
	}
	s.Detach()
	eng.RunFor(10 * time.Millisecond)
	if s.Len() != 1 {
		t.Errorf("detached sampler kept sampling: len=%d", s.Len())
	}
	if eng.Pending() != 0 {
		t.Errorf("detached sampler left %d events pending", eng.Pending())
	}
}

// twoGroupStack is a 4-node fleet over two dragonfly groups.
func twoGroupStack() *stack.Stack {
	opts := stack.DefaultOptions()
	opts.Nodes = 4
	opts.Topology = fabric.TopologySpec{Groups: 2, SwitchesPerGroup: 1, NodesPerSwitch: 2}
	return stack.New(opts)
}

// TestPrometheusExposition smoke-checks the text format over a live
// fabric sample.
func TestPrometheusExposition(t *testing.T) {
	st := twoGroupStack()
	eng := st.Eng
	s := New(eng, Config{Interval: time.Millisecond})
	s.Attach(Sources{Stack: st})
	s.Detach()

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE shssim_link_utilization gauge",
		`shssim_link_bytes_total{link="rosetta0->rosetta1",kind="global"} 0`,
		`shssim_switch_packets_total{switch="rosetta0",dir="injected"} 0`,
		`shssim_pods{phase="pending"} 0`,
		"shssim_virtual_time_microseconds 1000000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	empty := New(eng, Config{Interval: time.Millisecond})
	if err := empty.WritePrometheus(&buf); err == nil {
		t.Error("WritePrometheus on empty sampler should error")
	}
}

// TestPrometheusExpositionFaultStates: the operator-facing fault signals
// must be visible in the exposition — a downed link exports
// shssim_link_down 1 (healthy links 0), and an attached health source
// surfaces cordoned nodes, degraded counts and remediation progress. A
// sampler without a health source must emit none of the health families,
// so health-less scrapes are byte-stable across the subsystem's addition.
func TestPrometheusExpositionFaultStates(t *testing.T) {
	st := twoGroupStack()
	eng, topo := st.Eng, st.Topo
	if err := topo.SetGlobalLinkDown(0, 1, 0, true); err != nil {
		t.Fatal(err)
	}
	s := New(eng, Config{Interval: time.Millisecond})
	s.Attach(Sources{
		Stack: st,
		Health: func() HealthStats {
			return HealthStats{
				Degraded:    []string{"node1"},
				Cordoned:    []string{"node3"},
				Remediating: 1,
				Remediated:  2,
			}
		},
	})
	s.Detach()

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`shssim_link_down{link="rosetta0->rosetta1",kind="global"} 1`,
		`shssim_link_down{link="rosetta1->rosetta0",kind="global"} 1`,
		`shssim_node_cordoned{node="node3"} 1`,
		"shssim_nodes_degraded 1",
		`shssim_remediations{state="active"} 1`,
		`shssim_remediations{state="done"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Without a health source the health families must be absent, and a
	// healthy link reads 0 — the gauge always has a value per link.
	plain := New(eng, Config{Interval: time.Millisecond})
	if err := topo.SetGlobalLinkDown(0, 1, 0, false); err != nil {
		t.Fatal(err)
	}
	plain.Attach(Sources{Stack: st})
	plain.Detach()
	buf.Reset()
	if err := plain.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, stray := range []string{"shssim_node_cordoned", "shssim_nodes_degraded", "shssim_remediations"} {
		if strings.Contains(out, stray) {
			t.Errorf("health-less exposition leaks %q\n%s", stray, out)
		}
	}
	if !strings.Contains(out, `shssim_link_down{link="rosetta0->rosetta1",kind="global"} 0`) {
		t.Errorf("recovered link not exported as 0\n%s", out)
	}
}
