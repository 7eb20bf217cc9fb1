package k8s

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// scanOrphans is the oracle for the owner index: the full-store scan
// collectOrphans ran before the index existed, with its sort.
func scanOrphans(a *APIServer, owner UID) []ownedRef {
	var orphans []ownedRef
	for kind, s := range a.stores {
		for _, obj := range s {
			if m := obj.GetMeta(); m.OwnerUID == owner {
				orphans = append(orphans, ownedRef{kind, m.Namespace, m.Name})
			}
		}
	}
	sortRefs(orphans)
	return orphans
}

// sortRefs is that sort: by kind, then namespace, then name.
func sortRefs(refs []ownedRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].kind != refs[j].kind {
			return refs[i].kind < refs[j].kind
		}
		if refs[i].ns != refs[j].ns {
			return refs[i].ns < refs[j].ns
		}
		return refs[i].name < refs[j].name
	})
}

// storeState is what one engine step can change about stored objects, as
// far as the garbage collector is concerned.
type storeState struct {
	uid      UID
	deleting bool
}

func snapshotStore(a *APIServer) map[ownedRef]storeState {
	out := make(map[ownedRef]storeState)
	for kind, s := range a.stores {
		for _, obj := range s {
			m := obj.GetMeta()
			out[ownedRef{kind, m.Namespace, m.Name}] = storeState{m.UID, m.Deleting}
		}
	}
	return out
}

// TestOwnerIndexMatchesScan drives seeded random create / re-parenting
// update / delete / finalizer-held delete sequences through the client and
// checks, after every engine step, that the owned index is exactly what the
// scan finds — and that the garbage collector deletes a vanished owner's
// children in exactly the scan's order. The server has no watcher and no
// latency jitter, so every step is a commit and same-time commits run in
// the order they were queued: the GC's deletes can be followed one by one.
func TestOwnerIndexMatchesScan(t *testing.T) {
	kinds := []Kind{KindJob, KindPod, "Child"}
	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine(seed)
		api := NewAPIServer(eng, APILatency{Request: 6 * time.Millisecond, WatchDelivery: 25 * time.Millisecond})
		cli := api.Client()
		rng := rand.New(rand.NewSource(seed))
		uids := []UID{""} // every UID ever stamped, vanished ones included, plus "no owner"
		var gcQueue []ownedRef
		gcDeletes := 0

		checkIndex := func(when string) {
			t.Helper()
			buckets := 0
			for _, uid := range uids[1:] {
				want, bucket := scanOrphans(api, uid), api.owned[uid]
				if len(want) > 0 {
					buckets++
				}
				if len(bucket) != len(want) {
					t.Fatalf("seed %d, %s: index for %s = %v, scan finds %v", seed, when, uid, bucket, want)
				}
				for _, ref := range want {
					if !slices.Contains(bucket, ref) { // want has no duplicates: with equal lengths, neither has bucket
						t.Fatalf("seed %d, %s: index for %s = %v lacks %v", seed, when, uid, bucket, ref)
					}
				}
			}
			// No bucket for "no owner", none left empty, none for an unknown UID.
			if len(api.owned) != buckets {
				t.Fatalf("seed %d, %s: index has %d buckets, scan finds %d owners with children",
					seed, when, len(api.owned), buckets)
			}
		}

		// drain runs the engine dry one step at a time.
		drain := func(op string) {
			t.Helper()
			before := snapshotStore(api)
			for eng.Step() {
				after := snapshotStore(api)
				checkIndex(op)
				if len(gcQueue) > 0 {
					// This step is the GC's delete of the queue head: nothing
					// else may change, and a live head must go or turn terminating.
					head := gcQueue[0]
					gcQueue = gcQueue[1:]
					gcDeletes++
					for ref, was := range before {
						if now, ok := after[ref]; ref != head && (!ok || now != was) {
							t.Fatalf("seed %d, %s: GC step for %v changed %v", seed, op, head, ref)
						}
					}
					if was, ok := before[head]; ok && !was.deleting {
						if now, still := after[head]; still && !now.deleting {
							t.Fatalf("seed %d, %s: GC skipped %v", seed, op, head)
						}
					}
				}
				for ref, was := range before {
					if _, ok := after[ref]; !ok {
						// An owner vanished: its children are next, in scan order.
						gcQueue = append(gcQueue, scanOrphans(api, was.uid)...)
					}
				}
				before = after
			}
		}

		pick := func() (ownedRef, bool) {
			var refs []ownedRef
			for ref := range snapshotStore(api) {
				refs = append(refs, ref)
			}
			if len(refs) == 0 {
				return ownedRef{}, false
			}
			sortRefs(refs) // map order must not leak into the seeded choice
			return refs[rng.Intn(len(refs))], true
		}

		for step := 0; step < 400; step++ {
			op := "create"
			ref, ok := pick()
			if r := rng.Intn(10); ok && r >= 4 {
				op = []string{"reparent", "reparent", "delete", "delete", "delete", "unfinalize"}[r-4]
			}
			switch op {
			case "create":
				m := Meta{Kind: kinds[rng.Intn(len(kinds))], Namespace: fmt.Sprintf("ns%d", rng.Intn(2)),
					Name: fmt.Sprintf("o%d", step), OwnerUID: uids[rng.Intn(len(uids))]}
				if rng.Intn(4) == 0 {
					m.Finalizers = []string{"test/f"}
				}
				var obj Object
				switch m.Kind {
				case KindJob:
					obj = &Job{Meta: m}
				case KindPod:
					obj = &Pod{Meta: m}
				default:
					obj = &Custom{Meta: m}
				}
				cli.Create(obj)
				drain(op)
				uids = append(uids, obj.GetMeta().UID)
			case "reparent":
				obj := editable[Object](cli.Get(ref.kind, ref.ns, ref.name))
				obj.GetMeta().OwnerUID = uids[rng.Intn(len(uids))]
				cli.Update(obj)
				drain(op)
			case "delete":
				cli.Delete(ref.kind, ref.ns, ref.name)
				drain(op)
			case "unfinalize":
				cli.RemoveFinalizer(ref.kind, ref.ns, ref.name, "test/f")
				drain(op)
			}
		}
		if gcDeletes == 0 {
			t.Fatalf("seed %d: the sequence never exercised the garbage collector", seed)
		}
		t.Logf("seed %d: %d objects left, %d owner buckets, %d GC deletes followed",
			seed, len(snapshotStore(api)), len(api.owned), gcDeletes)
	}
}

// TestJobQueueDedup pins the workqueue contract the queued set must keep:
// enqueueing a queued key is a no-op, a popped key can be queued again, and
// reconciles run in FIFO order.
func TestJobQueueDedup(t *testing.T) {
	eng, api := newTestAPI()
	c := NewJobController(api.Client(), JobControllerConfig{PodCreateLatency: time.Millisecond})
	var order []string
	c.SetGate(func(job *Job) bool {
		order = append(order, job.Meta.Name)
		return false // closed: reconcile stops here, nothing requeues
	})
	const n = 1000
	for i := 0; i < n; i++ {
		mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: fmt.Sprintf("j%04d", i)},
			Spec: JobSpec{Parallelism: 1}})
	}
	order = order[:0] // the ADDED events already reconciled each job once

	// pump pops the first key at once (it is then in flight, not queued),
	// so a second enqueue of it is legitimate; every other duplicate must go.
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			c.RequeueJob(fmt.Sprintf("ns/j%04d", i))
		}
	}
	if got, want := len(c.queue), n; got != want {
		t.Fatalf("queue holds %d keys after enqueueing %d keys three times, want %d", got, n, want)
	}
	if len(c.queued) != len(c.queue) {
		t.Fatalf("queued set has %d members, queue %d", len(c.queued), len(c.queue))
	}
	eng.Run()
	want := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("j%04d", i))
	}
	want = append(want, "j0000")
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("reconcile order is not FIFO: got %d reconciles, first %v…", len(order), order[:min(5, len(order))])
	}
	if len(c.queue) != 0 || len(c.queued) != 0 {
		t.Fatalf("drained controller still holds queue=%d queued=%d", len(c.queue), len(c.queued))
	}

	// A popped key is free to be queued again.
	order = order[:0]
	c.RequeueJob("ns/j0007")
	eng.Run()
	if !reflect.DeepEqual(order, []string{"j0007"}) {
		t.Fatalf("re-enqueue after pop reconciled %v, want [j0007]", order)
	}
}
