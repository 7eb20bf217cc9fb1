package stack

import (
	"reflect"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

func TestDefaultStackShape(t *testing.T) {
	st := New(DefaultOptions())
	if len(st.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 (OpenCUBE pilot)", len(st.Nodes))
	}
	if st.VNISvc == nil {
		t.Fatal("VNI service not installed by default")
	}
	for _, n := range st.Nodes {
		if n.Device == nil || n.Runtime == nil || n.CXICNI == nil || n.Overlay == nil {
			t.Fatalf("node %s incompletely wired: %+v", n.Name, n)
		}
	}
	if _, ok := st.NodeByName("node0"); !ok {
		t.Error("NodeByName(node0) failed")
	}
	if _, ok := st.NodeByName("ghost"); ok {
		t.Error("NodeByName(ghost) succeeded")
	}
}

func TestStackWithoutVNIService(t *testing.T) {
	opts := DefaultOptions()
	opts.VNIService = false
	st := New(opts)
	if st.VNISvc != nil {
		t.Error("VNI service installed despite VNIService=false")
	}
}

func TestStackNodesScale(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 4
	st := New(opts)
	if len(st.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(st.Nodes))
	}
	// Distinct fabric addresses.
	seen := map[uint32]bool{}
	for _, n := range st.Nodes {
		a := uint32(n.Device.Addr())
		if seen[a] {
			t.Fatal("duplicate fabric address")
		}
		seen[a] = true
	}
}

func TestRuntimeForPod(t *testing.T) {
	st := New(DefaultOptions())
	st.Cluster.CreateNamespace("t")
	job := k8s.EchoJob("t", "j", map[string]string{vniapi.Annotation: "true"})
	job.Spec.Template.RunDuration = 30 * time.Second
	job.Spec.DeleteAfterFinished = false
	st.Cluster.SubmitJob(job)
	st.Eng.RunFor(10 * time.Second)
	rt, ok := st.RuntimeForPod("t", "j-0")
	if !ok {
		t.Fatal("RuntimeForPod failed for scheduled pod")
	}
	if _, sbOK := rt.SandboxFor("t", "j-0"); !sbOK {
		t.Error("sandbox missing for running pod")
	}
	if _, ok := st.RuntimeForPod("t", "ghost"); ok {
		t.Error("RuntimeForPod(ghost) succeeded")
	}
}

func TestStackDeterministicForSeed(t *testing.T) {
	run := func(seed int64) string {
		opts := DefaultOptions()
		opts.Seed = seed
		st := New(opts)
		st.Cluster.CreateNamespace("t")
		st.Cluster.SubmitJob(k8s.EchoJob("t", "j", map[string]string{vniapi.Annotation: "true"}))
		st.Eng.RunFor(20 * time.Second)
		out := ""
		for _, e := range st.DB.Audit() {
			out += string(e.Op) + e.At.String() + "|"
		}
		return out
	}
	if run(7) != run(7) {
		t.Error("same seed produced different traces")
	}
	if run(7) == run(8) {
		t.Error("different seeds produced identical traces")
	}
}

// TestCountersReadOnlyWhatIsAsked: each source's fields equal what its
// package reports, and a read of some sources leaves the rest zero — a
// one-value reader does not pay for the others. Reading the engine and the
// control plane allocates nothing.
func TestCountersReadOnlyWhatIsAsked(t *testing.T) {
	st := New(DefaultOptions())
	st.Cluster.CreateNamespace("t")
	st.Cluster.SubmitJob(k8s.EchoJob("t", "j", map[string]string{vniapi.Annotation: "true"}))
	st.Eng.RunFor(20 * time.Second)

	all := st.Counters(AllSources)
	if all.Steps != st.Eng.Steps || all.Elided != st.Eng.Elided || all.Parked != st.Eng.Parked {
		t.Errorf("engine counts %d/%d/%d, engine has %d/%d/%d",
			all.Steps, all.Elided, all.Parked, st.Eng.Steps, st.Eng.Elided, st.Eng.Parked)
	}
	cli := st.Cluster.Client
	if !reflect.DeepEqual(all.Fabric, st.Topo.Stats()) || all.DB != st.DB.Stats() ||
		all.VNI != st.VNISvc.Endpoint.Stats() || all.CP != cli.Stats() ||
		all.APIServer != "up" || all.CPArmed != cli.FaultsArmed() {
		t.Errorf("snapshot disagrees with its sources: %+v", all)
	}
	if len(all.NICs) != len(st.Nodes) || len(all.CNI) != len(st.Nodes) {
		t.Fatalf("%d NIC and %d CNI readings for %d nodes", len(all.NICs), len(all.CNI), len(st.Nodes))
	}
	for i, n := range st.Nodes {
		if !reflect.DeepEqual(all.NICs[i], n.Device.Stats()) || all.CNI[i] != n.CXICNI.Stats() {
			t.Errorf("%s: snapshot disagrees with its NIC or CNI plugin", n.Name)
		}
	}
	if all.DB.Allocated != 0 || all.DB.Quarantined != 1 || all.VNI.Acquisitions != 1 || all.CNI[0].AddsTotal+all.CNI[1].AddsTotal != 1 {
		t.Errorf("the job's VNI and pod are not in the snapshot: %+v", all)
	}

	only := st.Counters(DB)
	only.DB = vnidb.Stats{}
	only.Steps, only.Elided, only.Parked = 0, 0, 0
	if !reflect.DeepEqual(only, Counters{}) {
		t.Errorf("a DB read filled other sources: %+v", only)
	}
	if allocs := testing.AllocsPerRun(10, func() { st.Counters(ControlPlane) }); allocs != 0 {
		t.Errorf("reading the control-plane counters allocates %v objects", allocs)
	}
}
