package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/vnidb"
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
