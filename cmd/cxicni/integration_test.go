package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cni"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
	"github.com/caps-sim/shs-k8s/internal/vnisvc/httpapi"
)

// TestFetchVNIEndToEnd drives the plugin's VNI fetch against a live
// cmd/vnisvc-style HTTP endpoint: a job sync allocates the VNI, then the
// plugin resolves it for the job's pod — the binary-form equivalent of the
// in-process flow tested in internal/cni. A pod of a job redeeming a claim
// gets the claim's VNI, until the claim is released.
func TestFetchVNIEndToEnd(t *testing.T) {
	db := vnidb.Open(vnidb.Options{MinVNI: 3000, MaxVNI: 3010, Quarantine: time.Second})
	srv := httptest.NewServer(httpapi.NewServer(db))
	defer srv.Close()
	hook := func(path string, parent httpapi.ParentRef) {
		t.Helper()
		body, _ := json.Marshal(httpapi.SyncRequest{Parent: parent})
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s/%s: status %d", path, parent.Kind, parent.Name, resp.StatusCode)
		}
	}

	// The VNI controller syncs the job, allocating its VNI.
	hook("/sync", httpapi.ParentRef{
		Kind: "Job", Namespace: "tenant", Name: "mpi", UID: "u1",
		Annotations: map[string]string{"vni": "true"},
	})

	// The CNI binary resolves the pod's VNI from the endpoint.
	vni, err := fetchVNI(srv.URL, "tenant", "mpi-0")
	if err != nil {
		t.Fatalf("fetchVNI: %v", err)
	}
	if vni != 3000 {
		t.Errorf("vni = %d, want 3000", vni)
	}

	// A pod of an unknown job gets a clean failure (container must not
	// launch).
	if _, err := fetchVNI(srv.URL, "tenant", "ghost-0"); err == nil {
		t.Error("fetchVNI succeeded for unknown job")
	}

	// A job redeeming a claim is a user of the claim's VNI, not its owner.
	claim := httpapi.ParentRef{Kind: "VniClaim", Namespace: "tenant", Name: "shared", UID: "c1"}
	redeemer := httpapi.ParentRef{
		Kind: "Job", Namespace: "tenant", Name: "solver", UID: "u2",
		Annotations: map[string]string{"vni": "shared"},
	}
	hook("/sync", claim)
	hook("/sync", redeemer)
	if got, err := fetchVNI(srv.URL, "tenant", "solver-0"); err != nil || got != 3001 {
		t.Errorf("fetchVNI for a claim-redeeming job = %d, %v; want the claim's 3001", got, err)
	}
	// Once the job is finalized and the claim released, the row no longer
	// admits the pod.
	hook("/finalize", redeemer)
	hook("/finalize", claim)
	if got, err := fetchVNI(srv.URL, "tenant", "solver-0"); err == nil {
		t.Errorf("fetchVNI matched the released claim's VNI %d", got)
	}

	// Full ADD state flow with the fetched VNI.
	dir := t.TempDir()
	svcID, err := stateCreateService(dir, "ctr-1", 4026532000, uint32(vni))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := stateCheckService(dir, "ctr-1"); !ok {
		t.Error("service state missing after ADD")
	}
	if err := stateDeleteService(dir, "ctr-1"); err != nil {
		t.Fatal(err)
	}
	_ = svcID
}

// TestFetchVNIMatchesInSimulationPlugin holds the binary's VNI decision to
// the in-simulation CXI plugin's. One VNI-service stack runs the paper's
// control plane, and its database is served over HTTP the way cmd/vnisvc
// serves it. For each case a probe pod, bound to a node no kubelet runs,
// carries the labels and annotation the job controller would give it. The
// binary's fetchVNI and the plugin's ADD are then asked for that pod: both
// must admit it with the same VNI, or both must refuse it.
func TestFetchVNIMatchesInSimulationPlugin(t *testing.T) {
	st := stack.New(stack.DefaultOptions())
	cli := st.Cluster.Client
	st.Cluster.CreateNamespace("tenant")
	st.Cluster.CreateNamespace("other")
	job := func(name, vni string) {
		st.Cluster.SubmitJob(&k8s.Job{
			Meta: k8s.Meta{Namespace: "tenant", Name: name, Annotations: map[string]string{vniapi.Annotation: vni}},
			Spec: k8s.JobSpec{Parallelism: 1, Template: k8s.PodSpec{RunDuration: time.Hour}},
		})
	}
	job("mpi", "true")
	job("mpi-solver", "true")
	cli.Create(vnisvc.NewClaim("tenant", "shared", "shared"), nil)
	cli.Create(vnisvc.NewClaim("tenant", "gone", "gone"), nil)
	st.Eng.RunFor(time.Second)
	job("solver", "shared")
	job("leaver", "gone")
	st.Eng.RunFor(5 * time.Second)
	// The claim "gone" is released: its one redeemer is deleted, then the
	// claim itself, and its VNI goes into quarantine.
	gone, err := vniapi.JobVNI(vniapi.VNILister(cli), "tenant", "leaver")
	if err != nil {
		t.Fatalf("the claim's redeemer holds no VNI: %v", err)
	}
	cli.Delete(k8s.KindJob, "tenant", "leaver", nil)
	st.Eng.RunFor(5 * time.Second)
	cli.Delete(vniapi.KindVniClaim, "tenant", "gone", nil)
	st.Eng.RunFor(5 * time.Second)
	_ = st.DB.View(func(tx *vnidb.Tx) error {
		if row, _ := tx.Get(gone); row.State != vnidb.Quarantined {
			t.Fatalf("the released claim's VNI %d is %v, want quarantined", gone, row.State)
		}
		return nil
	})

	srv := httptest.NewServer(httpapi.NewServer(st.DB))
	defer srv.Close()
	node := st.Nodes[0]
	cases := []struct {
		name, ns, job, vni string
		admit              bool
	}{
		{"own VNI", "tenant", "mpi", "true", true},
		{"claim redeemed", "tenant", "solver", "shared", true},
		{"released claim", "tenant", "leaver", "gone", false},
		{"no VNI yet", "tenant", "late", "true", false},
		{"other namespace", "other", "mpi", "true", false},
		{"job name containing -", "tenant", "mpi-solver", "true", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pod := tc.job + "-9"
			cli.Create(&k8s.Pod{
				Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: tc.ns, Name: pod,
					Labels: map[string]string{"job-name": tc.job}, Annotations: map[string]string{vniapi.Annotation: tc.vni}},
				Spec: k8s.PodSpec{NodeName: "no-kubelet"},
			}, nil)
			st.Eng.RunFor(time.Second)
			binVNI, binErr := fetchVNI(srv.URL, tc.ns, pod)

			var simRes cni.Result
			var simErr error
			added := false
			node.CXICNI.Add(cni.Args{ContainerID: "probe-" + pod, NetNS: st.Kernel.NewNetNS("probe-" + pod).Inode,
				PodNamespace: tc.ns, PodName: pod}, &simRes, k8s.WroteFunc(func(err error) {
				simErr, added = err, true
			}))
			st.Eng.RunFor(5 * time.Second)
			if !added {
				t.Fatal("the plugin's ADD never completed")
			}
			simAdmits := simErr == nil && simRes.CXI != nil
			if (binErr == nil) != simAdmits {
				t.Fatalf("binary: vni %d, err %v; plugin: result %+v, err %v", binVNI, binErr, simRes, simErr)
			}
			if simAdmits && binVNI != simRes.CXI.VNI {
				t.Fatalf("binary admits with VNI %d, plugin with %d", binVNI, simRes.CXI.VNI)
			}
			if simAdmits != tc.admit {
				t.Fatalf("both hosts admit = %v, want %v (binary err %v, plugin err %v)", simAdmits, tc.admit, binErr, simErr)
			}
		})
	}
}
