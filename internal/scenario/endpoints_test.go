package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// orphanServices lists the netns-member services the CNI plugin created
// ("cni-<container>") whose container no longer has a sandbox on the node.
func orphanServices(st *stack.Stack) map[string]bool {
	live := map[string]bool{}
	for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("") {
		pod := obj.(*k8s.Pod)
		if node, ok := st.NodeByName(pod.Spec.NodeName); ok {
			if sb, ok := node.Runtime.SandboxFor(pod.Meta.Namespace, pod.Meta.Name); ok {
				live[sb.ContainerID] = true
			}
		}
	}
	orphans := map[string]bool{}
	for _, node := range st.Nodes {
		for _, svc := range node.Device.SvcList() {
			if cid, ok := strings.CutPrefix(svc.Desc.Name, "cni-"); ok && !live[cid] {
				orphans[node.Name+"/"+svc.Desc.Name] = true
			}
		}
	}
	return orphans
}

// TestServiceLifetimeIsTheContainers is the paper's contribution (B) held
// over every bundled scenario: a container's CXI service goes when the
// container does. A traffic event that leaves its ranks' endpoints open
// breaks it — CNI DEL finds the service busy and the VNI stays authorised
// on the node. A service is leaked when its sandbox is gone and it is still
// there a simulated second later (a teardown in flight takes ~0.1 s).
func TestServiceLifetimeIsTheContainers(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("expected the bundled scenario suite, found %d files", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			sc, err := ParseFile(f)
			if err != nil {
				t.Fatal(err)
			}
			res := RunHooked(sc, Hooks{AfterRun: func(st *stack.Stack, _ *Result) {
				before := orphanServices(st)
				st.Eng.RunFor(time.Second)
				for name := range orphanServices(st) {
					if before[name] {
						t.Errorf("service %s outlived its container", name)
					}
				}
				if sc.Name != "quickstart" {
					return
				}
				// The hello-world ends with every pod gone: each node is
				// back to its default service, every DEL having destroyed
				// the service its ADD created.
				for _, node := range st.Nodes {
					stats := node.CXICNI.Stats()
					if stats.AddsConfigured == 0 || stats.SvcsDestroyed != stats.AddsConfigured {
						t.Errorf("%s: %d services created, %d destroyed", node.Name, stats.AddsConfigured, stats.SvcsDestroyed)
					}
					if svcs := node.Device.SvcList(); len(svcs) != 1 {
						t.Errorf("%s: %d services left, want only the default one: %+v", node.Name, len(svcs), svcs)
					}
				}
			}})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		})
	}
}

// TestPingpongGivenUpMidFlight: a pingpong that runs out of time while its
// messages are still flowing closes its gang under them; whatever instant
// the deadline falls on within a round trip, the calls the ranks had
// already posted are dropped with the ranks, and the scenario carries on.
func TestPingpongGivenUpMidFlight(t *testing.T) {
	for _, timeout := range []string{"400us", "401500ns", "402us", "403500ns"} {
		runAll(t, `
name: giveup
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
    name: pp
    pods: 2
    runtime: 1h
    vni: "true"
  - at: 0s
    action: wait_running
    tenant: a
    job: pp
    pods: 2
    timeout: 30s
  - at: 0s
    action: pingpong
    tenant: a
    job: pp
    rounds: 100000
    timeout: `+timeout+`
    tolerate_stall: true
  - at: 10s
    action: run_for
    duration: 1s
`)
	}
}
