package k8s

import (
	"strings"
	"testing"
	"time"
)

// The read-only snapshot contract of Client.Watch: one event object per
// watch event, the informer cache's own, shared by every handler.

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

// TestHandlerWriteIsCaughtByVerifyCaches: a handler that breaks the
// contract corrupts the cache, and the convergence check says so. The
// store's copy is out of its reach.
func TestHandlerWriteIsCaughtByVerifyCaches(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		ev.Object.(*Pod).Status.Message = "scribbled by a handler"
	})
	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})

	err := cli.VerifyCaches()
	if err == nil || !strings.Contains(err.Error(), "diverged") || !strings.Contains(err.Error(), "equal rv") {
		t.Fatalf("VerifyCaches = %v, want the diverged-at-equal-rv error", err)
	}
	if got, _ := cli.Get(KindPod, "ns", "p"); got.(*Pod).Status.Message != "" {
		t.Error("the handler's write reached the store")
	}
}

// TestKubeletCopiesOnAdopt: the kubelet is the one consumer that keeps and
// writes its pods, so what it files in livePods must never be the event
// object — checked from a handler registered after the kubelet's, which
// therefore runs right after each adoption.
func TestKubeletCopiesOnAdopt(t *testing.T) {
	c, _ := newTestCluster(t, quietConfig())
	adopted := 0
	c.Client.Watch(KindPod, WatchOptions{}, func(ev Event) {
		for _, k := range c.Kubelets {
			live, ok := k.livePods[ev.Object.GetMeta().Key()]
			if !ok {
				continue
			}
			adopted++
			if Object(live) == ev.Object {
				t.Errorf("%s event: kubelet %s holds the cache's own pod", ev.Type, k.Node())
			}
		}
	})
	job := EchoJob("default", "adopt", nil)
	job.Spec.DeleteAfterFinished = false
	c.SubmitJob(job)
	c.Eng.RunFor(30 * time.Second)

	if adopted == 0 {
		t.Fatal("no kubelet adopted the pod")
	}
	cached, ok := c.Client.Lister(KindPod).Get("default", "adopt-0")
	if !ok || cached.(*Pod).Status.Phase != PodSucceeded {
		t.Fatalf("cached pod = %+v, want Succeeded", cached)
	}
	if err := c.Client.VerifyCaches(); err != nil {
		t.Errorf("kubelet writes leaked into a cache: %v", err)
	}
}

// TestPatchKeepsStoreIsolation: Patch submits the very object mutate edited
// (no second copy), and the store must still be out of every reader's
// reach afterwards.
func TestPatchKeepsStoreIsolation(t *testing.T) {
	eng, api, cli := writeFixture(t)
	lister := cli.Lister(KindJob)
	resp := cli.Patch(KindJob, "ns", "j", func(obj Object) bool {
		job := obj.(*Job)
		job.Spec.Parallelism = 7
		job.Meta.Annotations = map[string]string{"k": "v"}
		return true
	})
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("patch: %v", err)
	}

	got, _ := cli.Get(KindJob, "ns", "j")
	got.(*Job).Spec.Parallelism = 99
	got.GetMeta().Annotations["k"] = "tampered"

	next, _ := cli.Get(KindJob, "ns", "j")
	cached, _ := lister.Get("ns", "j")
	for name, obj := range map[string]Object{"next Get": next, "informer cache": cached, "store": api.store(KindJob)["ns/j"]} {
		if job := obj.(*Job); job.Spec.Parallelism != 7 || job.Meta.Annotations["k"] != "v" {
			t.Errorf("%s changed through a Get result: parallelism %d, annotation %q",
				name, job.Spec.Parallelism, job.Meta.Annotations["k"])
		}
	}
	if err := cli.VerifyCaches(); err != nil {
		t.Error(err)
	}
}
