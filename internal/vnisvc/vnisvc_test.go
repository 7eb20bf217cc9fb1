package vnisvc_test

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libcxi"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

func newStack(t *testing.T) *stack.Stack {
	t.Helper()
	opts := stack.DefaultOptions()
	opts.DB.Quarantine = 30 * time.Second
	return stack.New(opts)
}

// vniOf returns the VNI CRD instance attached to a job, if present.
func vniOf(s *stack.Stack, namespace, jobName string) (*k8s.Custom, bool) {
	for _, obj := range s.Cluster.API.List(vniapi.KindVNI, namespace) {
		cr := obj.(*k8s.Custom)
		if cr.Spec[vniapi.SpecJob] == jobName {
			return cr, true
		}
	}
	return nil, false
}

func TestPerResourceVNILifecycle(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("tenant")
	job := k8s.EchoJob("tenant", "vni-test-job", map[string]string{vniapi.Annotation: "true"})
	job.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(job)
	s.Eng.RunFor(30 * time.Second)

	// The job completed and its VNI CRD instance exists.
	got, ok := s.Cluster.Job("tenant", "vni-test-job")
	if !ok || !got.Status.Completed {
		t.Fatalf("job state: ok=%v status=%+v", ok, got.Status)
	}
	cr, ok := vniOf(s, "tenant", "vni-test-job")
	if !ok {
		t.Fatal("no VNI CRD instance created")
	}
	vni, err := strconv.Atoi(cr.Spec[vniapi.SpecVNI])
	if err != nil || vni < 1024 {
		t.Fatalf("vni spec = %q", cr.Spec[vniapi.SpecVNI])
	}
	// DB shows the allocation.
	if st := s.DB.Stats(); st.Allocated != 1 {
		t.Errorf("db stats = %+v", st)
	}
	// Delete the job: finalizer runs, VNI released into quarantine, CRD
	// garbage collected.
	s.Cluster.Client.Delete(k8s.KindJob, "tenant", "vni-test-job")
	s.Eng.RunFor(30 * time.Second)
	if _, ok := s.Cluster.Job("tenant", "vni-test-job"); ok {
		t.Error("job survives deletion")
	}
	if _, ok := vniOf(s, "tenant", "vni-test-job"); ok {
		t.Error("VNI CRD survives job deletion")
	}
	if st := s.DB.Stats(); st.Allocated != 0 || st.Quarantined != 1 {
		t.Errorf("db stats after release = %+v", st)
	}
	ep := s.VNISvc.Endpoint.Stats()
	if ep.Acquisitions != 1 || ep.Releases != 1 {
		t.Errorf("endpoint stats = %+v", ep)
	}
}

func TestDistinctJobsGetDistinctVNIs(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("tenant")
	for _, name := range []string{"a", "b", "c"} {
		job := k8s.EchoJob("tenant", name, map[string]string{vniapi.Annotation: "true"})
		job.Spec.DeleteAfterFinished = false
		s.Cluster.SubmitJob(job)
	}
	s.Eng.RunFor(time.Minute)
	seen := map[string]bool{}
	for _, name := range []string{"a", "b", "c"} {
		cr, ok := vniOf(s, "tenant", name)
		if !ok {
			t.Fatalf("job %s has no VNI", name)
		}
		v := cr.Spec[vniapi.SpecVNI]
		if seen[v] {
			t.Fatalf("VNI %s assigned twice", v)
		}
		seen[v] = true
	}
}

func TestPodGetsCXIServiceBoundToJobVNI(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("tenant")
	job := k8s.EchoJob("tenant", "rdma-job", map[string]string{vniapi.Annotation: "true"})
	job.Spec.Template.RunDuration = 20 * time.Second // keep pod alive
	job.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(job)
	s.Eng.RunFor(10 * time.Second)

	cr, ok := vniOf(s, "tenant", "rdma-job")
	if !ok {
		t.Fatal("no VNI CRD")
	}
	vni, _ := strconv.Atoi(cr.Spec[vniapi.SpecVNI])

	rt, ok := s.RuntimeForPod("tenant", "rdma-job-0")
	if !ok {
		t.Fatal("pod runtime not found")
	}
	proc, err := rt.Exec("tenant", "rdma-job-0", "mpi-rank", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := s.NodeByName(rt.Node())
	// The pod process authenticates via its netns and allocates an RDMA
	// endpoint on the job's VNI without naming a service.
	h := nodeHandle(node, proc.PID)
	ep, err := h.EPAllocAuto(fabric.VNI(vni), fabric.TCDedicated)
	if err != nil {
		t.Fatalf("EPAllocAuto inside pod: %v", err)
	}
	ep.Close()
	// A host process outside the pod netns is rejected.
	outsider, _ := s.Kernel.Spawn("outsider", 1000, 1000, 0, 0)
	hOut := nodeHandle(node, outsider.PID)
	if _, err := hOut.EPAllocAuto(fabric.VNI(vni), fabric.TCDedicated); err == nil {
		t.Error("outsider allocated on tenant VNI")
	}
}

func TestVNIClaimSharedAcrossJobs(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("vnitest")
	s.Cluster.Client.Create(vnisvc.NewClaim("vnitest", "vni-claim-test", "test"))
	s.Eng.RunFor(5 * time.Second)

	for _, name := range []string{"j1", "j2"} {
		job := k8s.EchoJob("vnitest", name, map[string]string{vniapi.Annotation: "vni-claim-test"})
		job.Spec.Template.RunDuration = 30 * time.Second
		job.Spec.DeleteAfterFinished = false
		s.Cluster.SubmitJob(job)
	}
	s.Eng.RunFor(15 * time.Second)

	cr1, ok1 := vniOf(s, "vnitest", "j1")
	cr2, ok2 := vniOf(s, "vnitest", "j2")
	if !ok1 || !ok2 {
		t.Fatalf("missing VNI CRDs: %v %v", ok1, ok2)
	}
	if cr1.Spec[vniapi.SpecVNI] != cr2.Spec[vniapi.SpecVNI] {
		t.Errorf("claim jobs got different VNIs: %s vs %s",
			cr1.Spec[vniapi.SpecVNI], cr2.Spec[vniapi.SpecVNI])
	}
	if cr1.Spec[vniapi.SpecVirtual] != "true" {
		t.Error("redeeming job's VNI CRD not marked virtual")
	}
	// DB tracks both users.
	s.DB.View(func(tx *vnidb.Tx) error {
		row, ok := tx.FindByOwner("claim/vnitest/vni-claim-test")
		if !ok {
			t.Error("claim allocation missing")
			return nil
		}
		if len(row.Users) != 2 {
			t.Errorf("claim users = %v", row.Users)
		}
		return nil
	})
}

func TestClaimDeletionBlockedWhileUsersRemain(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("vnitest")
	s.Cluster.Client.Create(vnisvc.NewClaim("vnitest", "claim-obj", "shared"))
	s.Eng.RunFor(5 * time.Second)

	job := k8s.EchoJob("vnitest", "user-job", map[string]string{vniapi.Annotation: "claim-obj"})
	job.Spec.Template.RunDuration = 40 * time.Second
	job.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(job)
	s.Eng.RunFor(10 * time.Second)

	// Try deleting the claim while the job uses it.
	s.Cluster.Client.Delete(vniapi.KindVniClaim, "vnitest", "claim-obj")
	s.Eng.RunFor(10 * time.Second)
	if _, ok := s.Cluster.API.Get(vniapi.KindVniClaim, "vnitest", "claim-obj"); !ok {
		t.Fatal("claim deleted while a job still uses it")
	}
	if s.VNISvc.Endpoint.Stats().StalledFinals == 0 {
		t.Error("no stalled finalizations recorded")
	}
	// Delete the job; the claim deletion must then proceed.
	s.Cluster.Client.Delete(k8s.KindJob, "vnitest", "user-job")
	s.Eng.RunFor(time.Minute)
	if _, ok := s.Cluster.API.Get(vniapi.KindVniClaim, "vnitest", "claim-obj"); ok {
		t.Error("claim not deleted after last user left")
	}
	if st := s.DB.Stats(); st.Allocated != 0 {
		t.Errorf("db stats = %+v", st)
	}
}

func TestJobRedeemingMissingClaimNeverLaunches(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("vnitest")
	job := k8s.EchoJob("vnitest", "orphan", map[string]string{vniapi.Annotation: "no-such-claim"})
	job.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(job)
	s.Eng.RunFor(30 * time.Second)
	got, _ := s.Cluster.Job("vnitest", "orphan")
	if got.Status.Completed {
		t.Error("job completed despite missing claim")
	}
	if pods := s.Cluster.API.List(k8s.KindPod, "vnitest"); len(pods) != 0 {
		t.Errorf("pods created for gated job: %d", len(pods))
	}
	if s.VNISvc.Endpoint.Stats().SyncErrors == 0 {
		t.Error("no sync errors recorded")
	}
}

func TestReleasedVNIQuarantined30s(t *testing.T) {
	opts := stack.DefaultOptions()
	// Tiny pool: one VNI. Reuse requires waiting out the quarantine.
	opts.DB.MinVNI, opts.DB.MaxVNI = 2000, 2000
	opts.DB.Quarantine = 30 * time.Second
	s := stack.New(opts)
	s.Cluster.CreateNamespace("t")

	j1 := k8s.EchoJob("t", "first", map[string]string{vniapi.Annotation: "true"})
	s.Cluster.SubmitJob(j1) // auto-deleted after completion
	s.Eng.RunFor(10 * time.Second)
	if st := s.DB.Stats(); st.Quarantined != 1 {
		t.Fatalf("first job's VNI not quarantined: %+v", st)
	}

	// Second job must wait for the quarantine to expire before its VNI
	// CRD can be created.
	j2 := k8s.EchoJob("t", "second", map[string]string{vniapi.Annotation: "true"})
	j2.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(j2)
	s.Eng.RunFor(5 * time.Second)
	if _, ok := vniOf(s, "t", "second"); ok {
		t.Fatal("VNI handed out while quarantined")
	}
	// After quarantine expiry a resync must succeed.
	s.Eng.RunFor(30 * time.Second)
	s.VNISvc.JobCtl.Resync()
	s.Eng.RunFor(30 * time.Second)
	if _, ok := vniOf(s, "t", "second"); !ok {
		t.Error("VNI not granted after quarantine expiry")
	}
}

func TestBaselineClusterWithoutIntegration(t *testing.T) {
	opts := stack.DefaultOptions()
	opts.VNIService = false
	s := stack.New(opts)
	s.Cluster.CreateNamespace("t")
	job := k8s.EchoJob("t", "plain", nil) // vni:false — no annotation
	job.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(job)
	s.Eng.RunFor(30 * time.Second)
	got, _ := s.Cluster.Job("t", "plain")
	if !got.Status.Completed {
		t.Fatalf("baseline job did not complete: %+v", got.Status)
	}
	// No CXI services beyond the default; the global VNI 1 is usable.
	for _, n := range s.Nodes {
		if len(n.Device.SvcList()) != 1 {
			t.Errorf("node %s has %d services", n.Name, len(n.Device.SvcList()))
		}
	}
}

func TestEndpointSyncIdempotentAcrossResyncs(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("t")
	job := k8s.EchoJob("t", "idem", map[string]string{vniapi.Annotation: "true"})
	job.Spec.DeleteAfterFinished = false
	s.Cluster.SubmitJob(job)
	s.Eng.RunFor(20 * time.Second)
	for i := 0; i < 3; i++ {
		s.VNISvc.JobCtl.Resync()
		s.Eng.RunFor(5 * time.Second)
	}
	if st := s.DB.Stats(); st.Allocated != 1 {
		t.Errorf("idempotency violated: %+v", st)
	}
	if st := s.VNISvc.Endpoint.Stats(); st.Acquisitions != 1 {
		t.Errorf("acquisitions = %d, want 1", st.Acquisitions)
	}
}

// nodeHandle opens a libcxi handle on a node's device for a process.
func nodeHandle(n *stack.Node, pid nsmodel.PID) *libcxi.Handle {
	return libcxi.Open(n.Device, pid)
}

func TestEndpointWALRecoveryMidCluster(t *testing.T) {
	// The VNI Endpoint pod crashes and restarts: the recovered database
	// must reproduce the allocation table exactly, and new acquisitions
	// must not collide with pre-crash allocations.
	var wal bytes.Buffer
	opts := stack.DefaultOptions()
	opts.DB.WAL = &wal
	s := stack.New(opts)
	s.Cluster.CreateNamespace("t")
	for i := 0; i < 4; i++ {
		job := k8s.EchoJob("t", fmt.Sprintf("j%d", i), map[string]string{vniapi.Annotation: "true"})
		job.Spec.Template.RunDuration = time.Hour
		job.Spec.DeleteAfterFinished = false
		s.Cluster.SubmitJob(job)
	}
	s.Eng.RunFor(15 * time.Second)
	if st := s.DB.Stats(); st.Allocated != 4 {
		t.Fatalf("pre-crash stats = %+v", st)
	}

	recovered, err := vnidb.Recover(bytes.NewReader(wal.Bytes()), opts.DB)
	if err != nil {
		t.Fatal(err)
	}
	var before, after []vnidb.Row
	s.DB.View(func(tx *vnidb.Tx) error { before = tx.List(); return nil })
	recovered.View(func(tx *vnidb.Tx) error { after = tx.List(); return nil })
	if len(before) != len(after) {
		t.Fatalf("recovered %d rows, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].VNI != after[i].VNI || before[i].Owner != after[i].Owner || before[i].State != after[i].State {
			t.Errorf("row %d differs: %+v vs %+v", i, before[i], after[i])
		}
	}
	// Post-recovery acquisitions avoid the recovered allocations.
	err = recovered.Update(func(tx *vnidb.Tx) error {
		v, err := tx.Acquire("post-crash", s.Eng.Now())
		if err != nil {
			return err
		}
		for _, r := range before {
			if r.VNI == v {
				return fmt.Errorf("recovered DB re-issued allocated VNI %d", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineHazardWithStragglingPod demonstrates why the paper couples
// the 30 s release quarantine to the pod termination grace period
// (§III-C1): with no quarantine, a released VNI can be handed to a new
// tenant while the previous tenant's pod is still alive inside its grace
// period — both then share a Virtual Network. The 30 s quarantine closes
// the window.
func TestQuarantineHazardWithStragglingPod(t *testing.T) {
	run := func(quarantine time.Duration) (reused bool, stragglerAlive bool) {
		opts := stack.DefaultOptions()
		opts.DB.MinVNI, opts.DB.MaxVNI = 4000, 4000 // one-VNI pool forces reuse
		opts.DB.Quarantine = quarantine
		s := stack.New(opts)
		s.Cluster.CreateNamespace("t")

		// Tenant 1: long-running pod with a 25 s termination grace.
		j1 := k8s.EchoJob("t", "victim", map[string]string{vniapi.Annotation: "true"})
		j1.Spec.Template.RunDuration = time.Hour
		j1.Spec.Template.TerminationGracePeriod = 25 * time.Second
		j1.Spec.DeleteAfterFinished = false
		s.Cluster.SubmitJob(j1)
		s.Eng.RunFor(10 * time.Second)
		if _, ok := vniOf(s, "t", "victim"); !ok {
			t.Fatal("victim job got no VNI")
		}

		// Delete tenant 1: the VNI is released by the finalizer, but the
		// pod lingers for its grace period.
		s.Cluster.Client.Delete(k8s.KindJob, "t", "victim")
		s.Eng.RunFor(3 * time.Second)

		// Tenant 2 arrives immediately.
		j2 := k8s.EchoJob("t", "attacker", map[string]string{vniapi.Annotation: "true"})
		j2.Spec.Template.RunDuration = time.Hour
		j2.Spec.DeleteAfterFinished = false
		s.Cluster.SubmitJob(j2)
		s.Eng.RunFor(8 * time.Second) // still inside tenant 1's grace window

		_, reused = vniOf(s, "t", "attacker")
		// Straggler check: any node still carrying a CXI service from the
		// victim's pod (beyond the default service)?
		for _, n := range s.Nodes {
			for _, svc := range n.Device.SvcList() {
				if svc.ID != 1 && svc.Desc.Name != "" &&
					len(svc.Desc.VNIs) == 1 && svc.Desc.VNIs[0] == 4000 &&
					!containsAttackerSvc(s, svc.Desc.Name) {
					stragglerAlive = true
				}
			}
		}
		return reused, stragglerAlive
	}

	// No quarantine: the attacker gets the victim's VNI while the
	// victim's pod (and its CXI service) is still alive — the hazard.
	reused, straggler := run(0)
	if !reused {
		t.Fatal("zero quarantine: VNI not reused — hazard scenario not exercised")
	}
	if !straggler {
		t.Fatal("zero quarantine: no straggling service — hazard scenario not exercised")
	}

	// Paper's 30 s quarantine: the VNI is withheld throughout the grace
	// window, so no overlap can occur.
	reused, _ = run(30 * time.Second)
	if reused {
		t.Error("30s quarantine: VNI handed out inside the straggler window")
	}
}

// containsAttackerSvc reports whether name belongs to the attacker's pod
// (created after the victim's), by checking the live attacker sandbox.
func containsAttackerSvc(s *stack.Stack, svcName string) bool {
	for _, n := range s.Nodes {
		if sb, ok := n.Runtime.SandboxFor("t", "attacker-0"); ok {
			if svcName == "cni-"+sb.ContainerID {
				return true
			}
		}
	}
	return false
}

// TestDecoratorsForgetFinishedJobs: jobs that were created, ran, and were
// deleted leave nothing behind in either decorator's bookkeeping.
func TestDecoratorsForgetFinishedJobs(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("tenant")
	const jobs = 20
	for i := 0; i < jobs; i++ { // EchoJob: deleted as soon as it completed
		s.Cluster.SubmitJob(k8s.EchoJob("tenant", fmt.Sprintf("j%02d", i), map[string]string{vniapi.Annotation: "true"}))
	}
	s.Eng.RunFor(2 * time.Minute)
	if left := s.Cluster.API.List(k8s.KindJob, "tenant"); len(left) != 0 {
		t.Fatalf("%d of %d jobs survive", len(left), jobs)
	}
	if st := s.VNISvc.Endpoint.Stats(); st.Acquisitions != jobs || st.Releases != jobs {
		t.Fatalf("endpoint stats = %+v, want %d acquisitions and releases", st, jobs)
	}
	if n := s.VNISvc.JobCtl.InFlight() + s.VNISvc.ClaimCtl.InFlight(); n != 0 {
		t.Errorf("the decorators still track %d parents after every job is gone", n)
	}
}

// resyncRoundAllocBudget is what one idempotent webhook round may allocate:
// Resync's parent listing and the database transaction — and no timer
// closure, children slice, Clone, database key, child, spec map, formatted
// VNI or write. Measured 2 (7 before the round read into its own scratch
// and handed the webhook the committed children).
const resyncRoundAllocBudget = 2

// TestResyncEchoesMatchingChild drives the three kinds of parent — a job
// owning its VNI, a job redeeming a claim, a VniClaim — through the webhook
// again once their child exists. A child that already says what the webhook
// wants is echoed: no API write, a handful of allocations. A child whose
// spec.vni was tampered with, or that carries a key the webhook did not put
// there, is rewritten by the next parent event.
func TestResyncEchoesMatchingChild(t *testing.T) {
	s := newStack(t)
	s.Cluster.CreateNamespace("t")
	cli := s.Cluster.Client
	cli.Create(vnisvc.NewClaim("t", "shared", "shared"))
	s.Eng.RunFor(5 * time.Second)
	for name, ann := range map[string]string{"owner": "true", "redeemer": "shared"} {
		job := k8s.EchoJob("t", name, map[string]string{vniapi.Annotation: ann})
		job.Spec.DeleteAfterFinished = false
		s.Cluster.SubmitJob(job)
	}
	s.Eng.RunFor(30 * time.Second)

	for _, tc := range []struct {
		child  string
		resync func()
		syncs  func() uint64
	}{
		{"vni-owner", s.VNISvc.JobCtl.Resync, func() uint64 { return s.VNISvc.Endpoint.Stats().JobSyncs }},
		{"vni-redeemer", s.VNISvc.JobCtl.Resync, func() uint64 { return s.VNISvc.Endpoint.Stats().JobSyncs }},
		{"vni-claim-shared", s.VNISvc.ClaimCtl.Resync, func() uint64 { return s.VNISvc.Endpoint.Stats().ClaimSyncs }},
	} {
		get := func() *k8s.Custom {
			obj, ok := cli.Get(vniapi.KindVNI, "t", tc.child)
			if !ok {
				t.Fatalf("%s: no such VNI CRD instance", tc.child)
			}
			return obj.(*k8s.Custom)
		}
		want := get()
		writes, syncs := s.Cluster.API.KindSeq(vniapi.KindVNI), tc.syncs()
		tc.resync()
		s.Eng.RunFor(5 * time.Second)
		if tc.syncs() == syncs {
			t.Fatalf("%s: resync did not reach the webhook", tc.child)
		}
		if got := s.Cluster.API.KindSeq(vniapi.KindVNI); got != writes || get() != want {
			t.Errorf("%s: a re-sync against a matching child wrote to the API (%d VNI commits)", tc.child, got-writes)
		}

		for what, tamper := range map[string]func(*k8s.Custom){
			"spec.vni changed": func(c *k8s.Custom) {
				c.Spec = map[string]string{vniapi.SpecVNI: "999"}
				for k, v := range want.Spec {
					if k != vniapi.SpecVNI {
						c.Spec[k] = v
					}
				}
			},
			"extra key": func(c *k8s.Custom) {
				c.Spec = map[string]string{"smuggled": "x"}
				for k, v := range want.Spec {
					c.Spec[k] = v
				}
			},
		} {
			cli.Patch(vniapi.KindVNI, "t", tc.child, func(obj k8s.Object) bool { tamper(obj.(*k8s.Custom)); return true })
			s.Eng.RunFor(5 * time.Second)
			if fmt.Sprint(get().Spec) == fmt.Sprint(want.Spec) {
				t.Fatalf("%s, %s: the tampering did not commit", tc.child, what)
			}
			tc.resync()
			s.Eng.RunFor(5 * time.Second)
			if got := get(); fmt.Sprint(got.Spec) != fmt.Sprint(want.Spec) {
				t.Errorf("%s, %s: spec after the next parent event = %v, want %v", tc.child, what, got.Spec, want.Spec)
			}
		}
	}

	// What the echo costs: one parent, one round.
	cli.Delete(k8s.KindJob, "t", "redeemer")
	s.Eng.RunFor(30 * time.Second)
	writes := s.Cluster.API.KindSeq(vniapi.KindVNI)
	allocs := testing.AllocsPerRun(100, func() {
		s.VNISvc.JobCtl.Resync()
		s.Eng.RunFor(time.Second)
	})
	t.Logf("%v allocations per idempotent webhook round (budget %d)", allocs, resyncRoundAllocBudget)
	if allocs > resyncRoundAllocBudget {
		t.Errorf("an idempotent webhook round allocates %v objects, budget %d", allocs, resyncRoundAllocBudget)
	}
	if got := s.Cluster.API.KindSeq(vniapi.KindVNI); got != writes {
		t.Errorf("%d VNI commits during idempotent rounds", got-writes)
	}
}
