package k8s

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// fakeRuntime counts setups/teardowns with a fixed cost; failSetup makes
// every setup fail (to exercise pod launch failure).
type fakeRuntime struct {
	eng       *sim.Engine
	setupCost sim.Duration
	failSetup error
	setups    int
	teardowns int
}

func (f *fakeRuntime) SetupPod(pod *Pod, done PodDone) {
	f.eng.After(f.setupCost, func() {
		if f.failSetup != nil {
			done.SetupDone(f.failSetup)
			return
		}
		f.setups++
		done.SetupDone(nil)
	})
}

func (f *fakeRuntime) TeardownPod(pod *Pod, done PodDone) {
	f.eng.After(f.setupCost/2, func() {
		f.teardowns++
		done.TornDown()
	})
}

func quietConfig() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.API.Jitter = 0
	cfg.Scheduler.Jitter = 0
	cfg.JobCtl.Jitter = 0
	cfg.Kubelet.Jitter = 0
	return cfg
}

func newTestCluster(t *testing.T, cfg ClusterConfig) (*Cluster, *fakeRuntime) {
	t.Helper()
	eng := sim.NewEngine(1)
	rt := &fakeRuntime{eng: eng, setupCost: 50 * time.Millisecond}
	c := NewCluster(eng, cfg, func(string) Runtime { return rt })
	// Every cluster test runs under the immutability oracle: no controller
	// may write to an object after the apiserver committed it.
	rec := c.Client.RecordCommits()
	t.Cleanup(func() {
		if err := rec.Verify(); err != nil {
			t.Error(err)
		}
	})
	eng.RunFor(time.Second) // let node objects settle
	return c, rt
}

func TestAPIServerCRUDAndWatch(t *testing.T) {
	eng := sim.NewEngine(1)
	api := NewAPIServer(eng, DefaultAPILatency())
	var events []Event
	api.Watch(KindJob, func(ev Event) { events = append(events, ev) })

	job := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}}
	var createErr error
	api.Client().Create(job, WroteFunc(func(err error) { createErr = err }))
	eng.Run()
	if createErr != nil {
		t.Fatal(createErr)
	}
	got, ok := api.Get(KindJob, "ns", "j")
	if !ok {
		t.Fatal("job missing after create")
	}
	if got != Object(job) {
		t.Error("the store keeps a copy of the created object instead of the object itself")
	}
	if got.GetMeta().UID == "" {
		t.Error("no UID assigned")
	}

	// Duplicate create fails.
	var dupErr error
	api.Client().Create(&Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}}, WroteFunc(func(err error) { dupErr = err }))
	eng.Run()
	if !errors.Is(dupErr, ErrAlreadyExists) {
		t.Errorf("dup create: %v", dupErr)
	}

	// Update preserves UID and installs a new object: the old read stands.
	j := got.Clone().(*Job)
	j.Spec.Parallelism = 3
	api.Client().Update(j, nil)
	eng.Run()
	got2, _ := api.Get(KindJob, "ns", "j")
	if got2.(*Job).Spec.Parallelism != 3 {
		t.Error("update lost")
	}
	if got2 == got || got.(*Job).Spec.Parallelism != 0 {
		t.Error("update wrote to the previous version instead of replacing it")
	}
	if got2.GetMeta().UID != got.GetMeta().UID {
		t.Error("UID changed on update")
	}

	api.Client().Delete(KindJob, "ns", "j", nil)
	eng.Run()
	if _, ok := api.Get(KindJob, "ns", "j"); ok {
		t.Error("job survives delete")
	}
	var adds, mods, dels int
	for _, ev := range events {
		switch ev.Type {
		case EventAdded:
			adds++
		case EventModified:
			mods++
		case EventDeleted:
			dels++
		}
	}
	if adds != 1 || dels != 1 || mods != 1 {
		t.Errorf("events: adds=%d mods=%d dels=%d", adds, mods, dels)
	}
}

// TestCommittedObjectsAreShared is the ownership contract from the store
// outward: a committed object is one pointer for every reader, a Clone is
// one struct that still shares the maps inside it, and the Meta helpers
// change a map by replacing it — so editing a Clone never reaches a reader.
func TestCommittedObjectsAreShared(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	lister := cli.Lister(KindJob)
	var delivered Object
	cli.Watch(KindJob, WatchOptions{}, func(ev Event) { delivered = ev.Object })
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j",
		Annotations: map[string]string{"vni": "true"}, Finalizers: []string{"a"}}})

	got, _ := api.Get(KindJob, "ns", "j")
	again, _ := cli.Get(KindJob, "ns", "j")
	cached, _ := lister.Get("ns", "j")
	listed := api.List(KindJob, "ns")
	for name, obj := range map[string]Object{"second Get": again, "lister": cached,
		"watch delivery": delivered, "List": listed[0], "store": api.table(KindJob).recs["ns/j"].obj} {
		if obj != got {
			t.Errorf("%s handed out %p, Get %p: a committed object is one pointer", name, obj, got)
		}
	}

	committed := contentHash(got)
	cp := got.Clone().(*Job)
	if Object(cp) == got {
		t.Fatal("Clone returned the object itself")
	}
	cp.Spec.Parallelism = 9
	cp.Meta.SetAnnotation("vni", "edited")
	cp.Meta.SetAnnotation("extra", "x")
	cp.Meta.DeleteAnnotation("vni")
	cp.Meta.AddFinalizer("b")
	if cp.Meta.Annotations["extra"] != "x" || len(cp.Meta.Annotations) != 1 || !cp.Meta.HasFinalizer("b") {
		t.Errorf("helpers did not edit the Clone: %+v", cp.Meta)
	}
	if contentHash(got) != committed {
		t.Errorf("editing a Clone reached the committed object: %+v", got)
	}
}

// TestFinalizersBlockDeletion: a finalized object turns terminating on
// Delete and is reaped when its finalizer list drains — whichever verb
// drains it — before that write's done runs, so a completion callback
// always sees the write's whole effect.
func TestFinalizersBlockDeletion(t *testing.T) {
	const fin = "vni.shs/finalizer"
	strip := func(obj Object) bool { obj.GetMeta().Finalizers = nil; return true }
	drains := map[string]func(cli *Client, done Wrote){
		"RemoveFinalizer": func(cli *Client, done Wrote) { cli.RemoveFinalizer(KindJob, "ns", "j", fin, done) },
		"Update": func(cli *Client, done Wrote) {
			job := editable[*Job](cli.Get(KindJob, "ns", "j"))
			strip(job)
			cli.Update(job, done)
		},
		"Patch": func(cli *Client, done Wrote) { cli.Patch(KindJob, "ns", "j", mutation{strip, done}) },
	}
	for name, drain := range drains {
		t.Run(name, func(t *testing.T) {
			eng, api := newTestAPI()
			cli := api.Client()
			mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j", Finalizers: []string{fin}}})
			cli.Delete(KindJob, "ns", "j", nil)
			eng.Run()
			got, ok := api.Get(KindJob, "ns", "j")
			if !ok {
				t.Fatal("finalized object vanished early")
			}
			if !got.GetMeta().Deleting {
				t.Error("deletionTimestamp not set")
			}
			completed := false
			drain(cli, WroteFunc(func(err error) {
				completed = true
				if _, ok := api.Get(KindJob, "ns", "j"); err != nil || ok {
					t.Errorf("at completion: err = %v, object still stored = %v", err, ok)
				}
			}))
			eng.Run()
			if !completed {
				t.Fatal("draining write never completed")
			}
		})
	}
}

func TestOwnerGarbageCollection(t *testing.T) {
	eng := sim.NewEngine(1)
	api := NewAPIServer(eng, DefaultAPILatency())
	job := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "owner"}}
	api.Client().Create(job, nil)
	eng.Run()
	got, _ := api.Get(KindJob, "ns", "owner")
	pod := &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "child",
		OwnerUID: got.GetMeta().UID}}
	api.Client().Create(pod, nil)
	eng.Run()
	api.Client().Delete(KindJob, "ns", "owner", nil)
	eng.Run()
	if _, ok := api.Get(KindPod, "ns", "child"); ok {
		t.Error("orphan not garbage-collected")
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	c, rt := newTestCluster(t, quietConfig())
	job := EchoJob("default", "test-job", nil)
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(30 * time.Second)

	got, ok := c.Job("default", "test-job")
	if !ok {
		t.Fatal("job disappeared")
	}
	if !got.Status.Completed || got.Status.Succeeded != 1 {
		t.Fatalf("status = %+v", got.Status)
	}
	if got.Status.AdmittedAt == 0 {
		t.Error("AdmittedAt not recorded")
	}
	if rt.setups != 1 {
		t.Errorf("setups = %d", rt.setups)
	}
}

func TestJobDeletedAfterCompletion(t *testing.T) {
	c, rt := newTestCluster(t, quietConfig())
	c.SubmitJob(EchoJob("default", "auto-del", nil))
	c.Eng.RunFor(60 * time.Second)
	if _, ok := c.Job("default", "auto-del"); ok {
		t.Error("job not auto-deleted")
	}
	// Pods garbage-collected, sandbox torn down.
	if pods := c.API.List(KindPod, "default"); len(pods) != 0 {
		t.Errorf("%d pods remain", len(pods))
	}
	if rt.teardowns != 1 {
		t.Errorf("teardowns = %d", rt.teardowns)
	}
}

func TestParallelJobSpreadsAcrossNodes(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	job := EchoJob("default", "mpi", nil)
	job.Spec.Parallelism = 2
	job.Spec.Template.RunDuration = 5 * time.Second
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(3 * time.Second)

	nodes := map[string]int{}
	for _, obj := range c.API.List(KindPod, "default") {
		pod := obj.(*Pod)
		if pod.Spec.NodeName != "" {
			nodes[pod.Spec.NodeName]++
		}
	}
	if len(nodes) != 2 {
		t.Errorf("pods on %d nodes, want spread over 2 (%v)", len(nodes), nodes)
	}
	c.Eng.RunFor(30 * time.Second)
	got, _ := c.Job("default", "mpi")
	if got.Status.Succeeded != 2 {
		t.Errorf("succeeded = %d", got.Status.Succeeded)
	}
}

func TestFailedSetupFailsPodAndJobNeverCompletes(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := &fakeRuntime{eng: eng, setupCost: 10 * time.Millisecond,
		failSetup: errors.New("cni add: no vni available")}
	c := NewCluster(eng, quietConfig(), func(string) Runtime { return rt })
	job := EchoJob("default", "doomed", nil)
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	eng.RunFor(30 * time.Second)
	got, _ := c.Job("default", "doomed")
	if got.Status.Completed && got.Status.Succeeded > 0 {
		t.Errorf("job succeeded despite CNI failure: %+v", got.Status)
	}
	pods := c.API.List(KindPod, "default")
	if len(pods) != 1 {
		t.Fatalf("pods = %d", len(pods))
	}
	if pods[0].(*Pod).Status.Phase != PodFailed {
		t.Errorf("pod phase = %s, want Failed", pods[0].(*Pod).Status.Phase)
	}
}

func TestSchedulerSkipsDeletedPods(t *testing.T) {
	eng := sim.NewEngine(1)
	api := NewAPIServer(eng, DefaultAPILatency())
	NewScheduler(api.Client(), DefaultSchedulerConfig(), []string{"n0"})
	pod := &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"},
		Status: PodStatus{Phase: PodPending}}
	api.Client().Create(pod, nil)
	api.Client().Delete(KindPod, "ns", "p", nil)
	eng.Run() // must not panic on binding a vanished pod
}

func TestActiveJobsCount(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	for i := 0; i < 3; i++ {
		job := EchoJob("default", fmt.Sprintf("act-%d", i), nil)
		job.Spec.Template.RunDuration = 10 * time.Second
		job.Spec.DeleteAfterFinished = false
		c.SubmitJob(job)
	}
	c.Eng.RunFor(5 * time.Second)
	if n := c.ActiveJobs(); n != 3 {
		t.Errorf("active = %d, want 3", n)
	}
	c.Eng.RunFor(60 * time.Second)
	if n := c.ActiveJobs(); n != 0 {
		t.Errorf("active after completion = %d", n)
	}
}

func TestJobControllerGateDefersPods(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	open := false
	c.JobCtl.SetGate(func(job *Job) bool { return open })
	job := EchoJob("default", "gated", nil)
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(5 * time.Second)
	if pods := c.API.List(KindPod, "default"); len(pods) != 0 {
		t.Fatalf("gate ignored: %d pods created", len(pods))
	}
	open = true
	c.JobCtl.RequeueJob("default/gated")
	c.Eng.RunFor(30 * time.Second)
	got, _ := c.Job("default", "gated")
	if !got.Status.Completed {
		t.Errorf("job did not complete after gate opened: %+v", got.Status)
	}
}

// TestCustomObjectsStoreAndShare: a custom resource's spec and status maps
// are immutable values like the metadata maps — a new spec is a new map on
// a Clone, and the committed version keeps the one it was created with.
func TestCustomObjectsStoreAndShare(t *testing.T) {
	eng := sim.NewEngine(1)
	api := NewAPIServer(eng, DefaultAPILatency())
	const KindVNI Kind = "VNI"
	obj := &Custom{
		Meta: Meta{Kind: KindVNI, Namespace: "ns", Name: "vni-1"},
		Spec: map[string]string{"vni": "1234", "owner": "job/x"},
	}
	api.Client().Create(obj, nil)
	eng.Run()
	got, ok := api.Get(KindVNI, "ns", "vni-1")
	if !ok {
		t.Fatal("custom object missing")
	}
	cr := got.(*Custom)
	if cr.Spec["vni"] != "1234" {
		t.Errorf("spec = %v", cr.Spec)
	}
	next := cr.Clone().(*Custom)
	next.Spec = map[string]string{"vni": "5678", "owner": "job/x"}
	api.Client().Update(next, nil)
	eng.Run()
	got2, _ := api.Get(KindVNI, "ns", "vni-1")
	if got2.(*Custom).Spec["vni"] != "5678" {
		t.Errorf("updated spec = %v", got2.(*Custom).Spec)
	}
	if cr.Spec["vni"] != "1234" {
		t.Error("the update wrote through to the version committed before it")
	}
}

func TestEventTypeString(t *testing.T) {
	if EventAdded.String() != "ADDED" || EventModified.String() != "MODIFIED" || EventDeleted.String() != "DELETED" {
		t.Error("event strings wrong")
	}
	if EventType(9).String() == "" {
		t.Error("unknown event type empty")
	}
}

func TestMetaHelpers(t *testing.T) {
	m := Meta{Namespace: "a", Name: "b", Finalizers: []string{"f1"}}
	if m.Key() != "a/b" {
		t.Errorf("Key = %q", m.Key())
	}
	if !m.HasFinalizer("f1") || m.HasFinalizer("f2") {
		t.Error("HasFinalizer wrong")
	}
}

func TestBurstAdmissionLagsSubmission(t *testing.T) {
	// Submitting a burst of jobs must show the queueing behaviour the
	// paper reports: admission (pods running) lags submission.
	c, _ := newTestCluster(t, quietConfig())
	const n = 40
	for i := 0; i < n; i++ {
		job := EchoJob("default", fmt.Sprintf("burst-%d", i), nil)
		job.Spec.DeleteAfterFinished = false
		c.SubmitJob(job)
	}
	c.Eng.RunFor(2 * time.Second)
	running := 0
	for _, obj := range c.API.List(KindJob, "default") {
		if obj.(*Job).Status.Completed {
			running++
		}
	}
	if running >= n {
		t.Errorf("all %d jobs completed within 2s — no queueing modelled", n)
	}
	c.Eng.RunFor(5 * time.Minute)
	done := 0
	for _, obj := range c.API.List(KindJob, "default") {
		if obj.(*Job).Status.Completed {
			done++
		}
	}
	if done != n {
		t.Errorf("only %d/%d jobs completed eventually", done, n)
	}
}

func TestDeletingRunningPodAppliesGracePeriod(t *testing.T) {
	c, rt := newTestCluster(t, quietConfig())
	job := EchoJob("default", "long", nil)
	job.Spec.Template.RunDuration = 10 * time.Minute
	job.Spec.Template.TerminationGracePeriod = 20 * time.Second
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(5 * time.Second) // pod running by now
	pods := c.API.List(KindPod, "default")
	if len(pods) != 1 || pods[0].(*Pod).Status.Phase != PodRunning {
		t.Fatalf("pod not running: %+v", pods)
	}
	c.Client.Delete(KindJob, "default", "long", nil)
	c.Eng.RunFor(5 * time.Second)
	// Teardown is pending (grace period), sandbox not yet destroyed.
	if rt.teardowns != 0 {
		t.Fatal("teardown ran before grace period expired")
	}
	c.Eng.RunFor(30 * time.Second)
	if rt.teardowns != 1 {
		t.Errorf("teardowns = %d after grace period", rt.teardowns)
	}
}

func TestSchedulerPicksLeastLoadedNode(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	// Saturate node0 with a long pod pinned there via a direct create.
	pinned := &Pod{
		Meta:   Meta{Kind: KindPod, Namespace: "default", Name: "pinned"},
		Spec:   PodSpec{NodeName: "node0", RunDuration: 10 * time.Minute},
		Status: PodStatus{Phase: PodRunning},
	}
	c.Client.Create(pinned, nil)
	c.Eng.RunFor(time.Second)
	// The next unpinned pod must land on node1.
	job := EchoJob("default", "next", nil)
	job.Spec.Template.RunDuration = time.Minute
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(5 * time.Second)
	obj, ok := c.API.Get(KindPod, "default", "next-0")
	if !ok {
		t.Fatal("pod missing")
	}
	if node := obj.(*Pod).Spec.NodeName; node != "node1" {
		t.Errorf("pod scheduled to %s, want least-loaded node1", node)
	}
}

func TestMultipleJobsInterleave(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	const n = 10
	for i := 0; i < n; i++ {
		job := EchoJob("default", fmt.Sprintf("multi-%d", i), nil)
		job.Spec.DeleteAfterFinished = false
		c.SubmitJob(job)
	}
	c.Eng.RunFor(2 * time.Minute)
	done := 0
	for _, obj := range c.API.List(KindJob, "default") {
		if obj.(*Job).Status.Completed {
			done++
		}
	}
	if done != n {
		t.Errorf("completed %d/%d jobs", done, n)
	}
}
