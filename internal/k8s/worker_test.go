package k8s

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// TestFIFOMatchesSliceQueue drives the work queue with a seeded mix of pushes
// and pops that reaches 5 000 queued keys, wraps the ring and grows it while
// wrapped, against a plain slice as the oracle; then a queue that drained
// refills to its old depth without allocating.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo[string]
	var oracle []string
	next, popped, peak := 0, 0, 0
	step := func(push bool) {
		t.Helper()
		if push {
			key := fmt.Sprint("ns/k", next)
			next++
			q.push(key)
			oracle = append(oracle, key)
			peak = max(peak, len(oracle))
			return
		}
		if got, want := q.pop(), oracle[0]; got != want {
			t.Fatalf("pop %d = %q, want %q", popped, got, want)
		}
		oracle = oracle[1:]
		popped++
	}
	for len(oracle) < 5000 { // pushes twice as likely as pops
		step(len(oracle) == 0 || rng.Intn(3) > 0)
	}
	for len(oracle) > 0 { // pops twice as likely as pushes
		step(rng.Intn(3) == 0)
	}
	if q.len() != 0 || peak < 5000 {
		t.Fatalf("queue holds %d after draining, peak %d", q.len(), peak)
	}
	for _, x := range q.ring {
		if x != "" {
			t.Fatalf("drained ring still holds %q", x)
		}
	}
	keys := make([]string, len(q.ring))
	for i := range keys {
		keys[i] = fmt.Sprint("ns/r", i)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, k := range keys {
			q.push(k)
		}
		for range keys {
			q.pop()
		}
	}); allocs != 0 {
		t.Errorf("refilling a drained queue to its capacity allocates %v objects", allocs)
	}
}

// held returns the records l holds while out of those it made are still in
// flight, failing the test if one is there twice (put back by two owners)
// or one is missing (Get had to make another: a record leaked).
func held[T any](t *testing.T, name string, l *sim.FreeList[T], out int) []*T {
	t.Helper()
	made := l.Len()
	recs := make([]*T, made-out)
	seen := make(map[*T]bool, len(recs))
	for i := range recs {
		recs[i] = l.Get()
		if l.Len() != made {
			t.Fatalf("%s: of %d records made, %d in flight, fewer than the rest are on the free list", name, made, out)
		}
		if seen[recs[i]] {
			t.Errorf("%s: a record is on the free list twice", name)
		}
		seen[recs[i]] = true
	}
	for i := len(recs) - 1; i >= 0; i-- {
		l.Put(recs[i])
	}
	return recs
}

// TestWorkRecordsHeldAfterDrain runs jobs one at a time to completion and
// deletion. Each step of a job is alone in flight at its owner, so a drained
// cluster holds exactly one record per free list that served it: the
// scheduler's binding writes, the job controller's pod creates and status
// patches, and the kubelet's pod tasks and status writes on the node that ran
// the pods. Fewer is a record leaked, more one put back twice.
func TestWorkRecordsHeldAfterDrain(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	for i := 0; i < 4; i++ {
		c.SubmitJob(EchoJob("ns", fmt.Sprint("j", i), nil))
		c.Eng.Run()
		if n := len(c.Client.API().List(KindJob, "ns")) + len(c.Client.API().List(KindPod, "ns")); n != 0 {
			t.Fatalf("job %d: %d jobs and pods left after the drain", i, n)
		}
	}
	want := map[string]int{
		"scheduler binds": len(held(t, "scheduler binds", &c.Scheduler.binds, 0)),
		"job creates":     len(held(t, "job creates", &c.JobCtl.creates, 0)),
		"job patches":     len(held(t, "job patches", &c.JobCtl.patches, 0)),
	}
	for name, n := range want {
		if n != 1 {
			t.Errorf("%s: the free list holds %d records, want 1", name, n)
		}
	}
	ran := 0
	for _, k := range c.Kubelets {
		tasks, writes := len(held(t, "kubelet tasks", &k.tasks, 0)), len(held(t, "kubelet writes", &k.writes, 0))
		if tasks == 0 && writes == 0 {
			continue // the scheduler placed nothing here
		}
		ran++
		if tasks != 1 || writes != 1 {
			t.Errorf("kubelet %s holds %d task and %d write records, want 1 each", k.Node(), tasks, writes)
		}
		if k.queue.len() != 0 || len(k.exitTimers) != 0 || k.running != 0 {
			t.Errorf("kubelet %s: %d queued, %d exit timers, %d running after the drain",
				k.Node(), k.queue.len(), len(k.exitTimers), k.running)
		}
	}
	if ran == 0 {
		t.Fatal("no kubelet ran a pod")
	}
}

// TestExitTimerRecordRecycledOnce deletes a pod while its container's exit
// is pending: the task stays off the free list until then (its exit event
// still holds it), and the deletion's cancel recycles it exactly once — the
// teardown then reuses it.
func TestExitTimerRecordRecycledOnce(t *testing.T) {
	c, rt := newTestCluster(t, quietConfig())
	job := EchoJob("ns", "long", nil)
	job.Spec.Template.RunDuration = time.Hour
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(10 * time.Second)
	var k *Kubelet
	var task *podTask
	for _, kl := range c.Kubelets {
		for _, tk := range kl.exitTimers {
			k, task = kl, tk
		}
	}
	if task == nil {
		t.Fatal("no pod is running with an exit pending")
	}
	for _, r := range held(t, "kubelet tasks", &k.tasks, 1) {
		if r == task {
			t.Fatal("the task of a running container is on the free list while its exit is pending")
		}
	}
	c.Client.Delete(KindJob, "ns", "long", nil)
	c.Eng.Run()
	if rt.teardowns != 1 || len(k.exitTimers) != 0 {
		t.Fatalf("%d teardowns, %d exit timers after the deletion", rt.teardowns, len(k.exitTimers))
	}
	n := 0
	for _, r := range held(t, "kubelet tasks", &k.tasks, 0) {
		if r == task {
			n++
		}
	}
	if n != 1 || k.tasks.Len() != 1 {
		t.Errorf("the free list holds the task %d times among %d records, want once among 1", n, k.tasks.Len())
	}
}

// syncRuntime brings a sandbox up and down on the spot, allocating nothing.
type syncRuntime struct{}

func (syncRuntime) SetupPod(_ *Pod, done Wrote)    { done.Wrote(nil) }
func (syncRuntime) TeardownPod(_ *Pod, done Wrote) { done.Wrote(nil) }

// podLifecycle makes a kubelet on syncRuntime and the function that runs
// one pod through it, from the binding that queues it to Succeeded, and
// returns what that allocated; the pod is created and deleted outside the
// measurement. Three pods warm it up.
func podLifecycle(t *testing.T) (*Kubelet, func() uint64) {
	eng, api := newTestAPI()
	cli := api.Client()
	k := NewKubelet(cli, DefaultKubeletConfig(), "n0", syncRuntime{})
	var ms runtime.MemStats
	lifecycle := func() uint64 {
		cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"},
			Spec: PodSpec{RunDuration: time.Second}, Status: PodStatus{Phase: PodPending}}, nil)
		eng.Run()
		bound := editable[*Pod](api.Get(KindPod, "ns", "p"))
		bound.Spec.NodeName, bound.Status.Phase = "n0", PodScheduled
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		cli.Update(bound, nil)
		eng.Run()
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - before
		if obj, ok := api.Get(KindPod, "ns", "p"); !ok || obj.(*Pod).Status.Phase != PodSucceeded {
			t.Fatalf("pod after its lifecycle: %+v", obj)
		}
		cli.Delete(KindPod, "ns", "p", nil)
		eng.Run()
		return allocs
	}
	for i := 0; i < 3; i++ {
		lifecycle()
	}
	return k, lifecycle
}

// TestPodLifecycleAllocations pins what a warm kubelet allocates for one pod
// from the binding that queues it to Succeeded: the two versions its status
// writes commit (Running, Succeeded) and nothing else. The pod task and the
// status writes are recycled records, the queue reuses its ring and the
// status write is its own Mutation, no method value: a count above the pin
// has put a closure, a queue reallocation or a copy back on the path.
func TestPodLifecycleAllocations(t *testing.T) {
	const want = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, lifecycle := podLifecycle(t)
	for i := 0; i < 20; i++ {
		if got := lifecycle(); got != want {
			t.Fatalf("lifecycle %d allocates %d objects, want %d", i, got, want)
		}
	}
}

// TestFreshPodTaskAllocatesOnlyItself: pods started while the kubelet's
// task free list is empty, as every pod of a burst is, each cost the two
// versions TestPodLifecycleAllocations pins and at most one allocation for
// their task, which the list makes alone or in a chunk of several. Each
// lifecycle first takes the task the last one put back and keeps it out,
// as the earlier pods of a burst keep theirs, so every pod's task is a
// fresh record. The runtime reports to the task itself (Wrote), so no
// callback is made for a new task: binding its Wrote as a method value
// again adds one per pod.
func TestFreshPodTaskAllocatesOnlyItself(t *testing.T) {
	const pods, want = 64, 64 * (2 + 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k, lifecycle := podLifecycle(t)
	total := uint64(0)
	for i := 0; i < pods; i++ {
		k.tasks.Get() // kept out: the next pod's task is a fresh one
		total += lifecycle()
	}
	if total > want {
		t.Fatalf("%d pods on an empty task list allocate %d objects, want at most %d", pods, total, want)
	}
	t.Logf("%d pods on an empty task list allocate %d objects", pods, total)
}
