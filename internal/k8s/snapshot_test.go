package k8s

import (
	"strings"
	"testing"
	"time"
)

// The read-only contract of committed objects: one object per commit, the
// store's own, shared by every watch handler, cache entry and read.

// TestWatchHandlersShareOneSnapshot: two handlers and Lister.Get observe
// the same pointer for one event, and what a delivery allocates does not
// depend on how many handlers match it.
func TestWatchHandlersShareOneSnapshot(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	inf := cli.Informer(KindPod)
	lister := inf.Lister()

	var first, second, cached Object
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) { first = ev.Object })
	cli.Watch(KindPod, WatchOptions{Namespace: "ns"}, func(ev Event) {
		second = ev.Object
		cached, _ = lister.Get("ns", "p")
	})
	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	if first == nil {
		t.Fatal("no event delivered")
	}
	if first != second || first != cached {
		t.Errorf("one event, three objects: handler 1 %p, handler 2 %p, lister %p", first, second, cached)
	}

	// One delivery, fed straight into the informer so nothing but the
	// absorb-and-dispatch path is measured.
	pod, seq := first, inf.lastSeq
	deliver := func() {
		seq++
		inf.onEvent(Event{Type: EventModified, Object: pod, Seq: seq})
	}
	two := testing.AllocsPerRun(100, deliver)
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) { first = ev.Object })
	three := testing.AllocsPerRun(100, deliver)
	if three > two {
		t.Errorf("a delivery allocates %v with two matching handlers, %v with three", two, three)
	}
}

// TestHandlerWriteIsCaughtByRecorder: a handler that breaks the contract
// writes to the store's own object — VerifyCaches cannot see that, cache and
// store being one pointer — and the commit recorder names the object.
func TestHandlerWriteIsCaughtByRecorder(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		ev.Object.(*Pod).Status.Message = "scribbled by a handler"
	})
	rec := cli.RecordCommits()
	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})

	if err := cli.VerifyCaches(); err != nil {
		t.Errorf("VerifyCaches = %v; cache and store share the scribbled object", err)
	}
	err := rec.Verify()
	if err == nil || !strings.Contains(err.Error(), "Pod ns/p rv 1 written after commit") {
		t.Fatalf("Verify = %v, want the pod named as written after commit", err)
	}
}

// TestKubeletKeepsCommittedPods: the kubelet adopts the committed pod
// itself, no copy, and files in livePods each version its own status writes
// commit — checked from a handler registered after the kubelet's, which
// therefore runs right after the adoption, and against the store once the
// pod has finished. The recorder newTestCluster arms holds all of them
// unwritten.
func TestKubeletKeepsCommittedPods(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	var holder *Kubelet
	c.Client.Watch(KindPod, WatchOptions{}, func(ev Event) {
		for _, k := range c.Kubelets {
			live, ok := k.livePods[ev.Object.GetMeta().Key()]
			if !ok || holder != nil {
				continue
			}
			holder = k
			if Object(live) != ev.Object {
				t.Errorf("%s event: kubelet %s adopted a copy of the committed pod", ev.Type, k.Node())
			}
		}
	})
	job := EchoJob("default", "adopt", nil)
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(30 * time.Second)

	if holder == nil {
		t.Fatal("no kubelet adopted the pod")
	}
	stored, ok := c.Client.Get(KindPod, "default", "adopt-0")
	if !ok || stored.(*Pod).Status.Phase != PodSucceeded {
		t.Fatalf("stored pod = %+v, want Succeeded", stored)
	}
	if live := holder.livePods["default/adopt-0"]; Object(live) != stored {
		t.Errorf("kubelet %s files %p, the store holds %p: not the version its last status write committed",
			holder.Node(), live, stored)
	}
	if err := c.Client.VerifyCaches(); err != nil {
		t.Errorf("kubelet writes leaked into a cache: %v", err)
	}
}

// TestPatchEditsAClone: Patch hands mutate a Clone and submits that very
// struct (no second copy). The version committed before stands untouched,
// and once the write lands every reader holds the new object.
func TestPatchEditsAClone(t *testing.T) {
	eng, api, cli := writeFixture(t)
	lister := cli.Lister(KindJob)
	rec := cli.RecordCommits()
	before, _ := cli.Get(KindJob, "ns", "j")
	var edited Object
	var res outcome
	cli.Patch(KindJob, "ns", "j", mutation{func(obj Object) bool {
		edited = obj
		job := obj.(*Job)
		job.Spec.Parallelism = 7
		job.Meta.SetAnnotation("k", "v")
		return true
	}, &res})
	eng.Run()
	if !res.completed() || res.err != nil {
		t.Fatalf("patch: completed %v, err %v", res.completed(), res.err)
	}
	if edited == before {
		t.Fatal("mutate was handed the committed object, not a Clone")
	}
	if job := before.(*Job); job.Spec.Parallelism != 0 || job.Meta.Annotations != nil {
		t.Errorf("patch wrote to the previous version: %+v", job)
	}

	next, _ := cli.Get(KindJob, "ns", "j")
	cached, _ := lister.Get("ns", "j")
	for name, obj := range map[string]Object{"next Get": next, "informer cache": cached, "store": api.table(KindJob).recs["ns/j"].obj} {
		if obj != edited {
			t.Errorf("%s holds %p, the patch committed %p", name, obj, edited)
		}
	}
	if job := next.(*Job); job.Spec.Parallelism != 7 || job.Meta.Annotations["k"] != "v" {
		t.Errorf("patched job = %+v", job)
	}
	if err := cli.VerifyCaches(); err != nil {
		t.Error(err)
	}
	if err := rec.Verify(); err != nil {
		t.Error(err)
	}
}
