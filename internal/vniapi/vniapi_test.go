package vniapi

import (
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

func TestRequested(t *testing.T) {
	cases := []struct {
		ann       map[string]string
		requested bool
		claim     string
	}{
		{nil, false, ""},
		{map[string]string{}, false, ""},
		{map[string]string{"vni": ""}, false, ""},
		{map[string]string{"vni": "true"}, true, ""},
		{map[string]string{"vni": "my-claim"}, true, "my-claim"},
		{map[string]string{"other": "true"}, false, ""},
	}
	for _, c := range cases {
		req, claim := Requested(c.ann)
		if req != c.requested || claim != c.claim {
			t.Errorf("Requested(%v) = (%v, %q), want (%v, %q)",
				c.ann, req, claim, c.requested, c.claim)
		}
	}
}

func TestConstantsStable(t *testing.T) {
	// The annotation and spec keys are the user-facing interface (paper
	// Listings 1-3); changing them silently would break deployments.
	if Annotation != "vni" {
		t.Errorf("Annotation = %q", Annotation)
	}
	if string(KindVNI) != "VNI" || string(KindVniClaim) != "VniClaim" {
		t.Error("CRD kind names changed")
	}
	if SpecVNI != "vni" || SpecJob != "job" || SpecClaim != "claim" || SpecVirtual != "virtual" {
		t.Error("spec keys changed")
	}
	if MaxGracePeriod.Seconds() != 30 {
		t.Errorf("MaxGracePeriod = %v, paper mandates 30s", MaxGracePeriod)
	}
}

// TestJobVNI covers the three answers of the one VNI lookup — no instance
// yet, a malformed spec.vni, a VNI — and that answering allocates nothing
// unless it has an error to build (the CNI plugin asks once per pod).
func TestJobVNI(t *testing.T) {
	eng := sim.NewEngine(1)
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	vnis := VNILister(api.Client())
	for name, spec := range map[string]map[string]string{
		"vni-good":    {SpecVNI: "1027", SpecJob: "good"},
		"vni-bad":     {SpecVNI: "10e3", SpecJob: "bad"},
		"vni-unowned": {SpecVNI: "1028"},
	} {
		api.Client().Create(&k8s.Custom{Meta: k8s.Meta{Kind: KindVNI, Namespace: "team", Name: name}, Spec: spec})
	}
	eng.RunFor(time.Second)

	for _, c := range []struct {
		namespace, job string
		vni            fabric.VNI
		err            error
	}{
		{"team", "good", 1027, nil},
		{"team", "absent", 0, ErrNoInstance},
		{"other", "good", 0, ErrNoInstance},
	} {
		if vni, err := JobVNI(vnis, c.namespace, c.job); vni != c.vni || err != c.err {
			t.Errorf("JobVNI(%s/%s) = %d, %v, want %d, %v", c.namespace, c.job, vni, err, c.vni, c.err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = JobVNI(vnis, c.namespace, c.job) }); allocs != 0 {
			t.Errorf("JobVNI(%s/%s) allocates %v per call, want 0", c.namespace, c.job, allocs)
		}
	}
	vni, err := JobVNI(vnis, "team", "bad")
	if vni != 0 || err == nil || err == ErrNoInstance || !strings.Contains(err.Error(), "team/vni-bad") {
		t.Errorf("JobVNI on a malformed spec.vni = %d, %v, want an error naming team/vni-bad", vni, err)
	}
}
