package k8s

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

func newTestAPI() (*sim.Engine, *APIServer) {
	eng := sim.NewEngine(1)
	return eng, NewAPIServer(eng, DefaultAPILatency())
}

// editable is the first step of every Get→edit→Update sequence: a read
// hands out the committed object itself, so the edit goes on a Clone.
func editable[T Object](obj Object, ok bool) T {
	if !ok {
		panic("editable: object not found")
	}
	return obj.Clone().(T)
}

// outcome is a test's end of one write: the Wrote the verb takes, calls
// counts its runs (0 while the write is in flight) and err is the outcome it
// was handed.
type outcome struct {
	calls int
	err   error
}

func (o *outcome) Wrote(err error) { o.calls++; o.err = err }

// mutation is the Mutation of a test's UpdateStatus or Patch: fn edits, w
// hears the outcome.
type mutation struct {
	fn func(Object) bool
	w  Wrote
}

func (m mutation) Mutate(obj Object) bool { return m.fn(obj) }
func (m mutation) Wrote(err error)        { m.w.Wrote(err) }

// completed is the predicate RunUntilDone polls.
func (o *outcome) completed() bool { return o.calls > 0 }

func mustCreate(t *testing.T, eng *sim.Engine, api *APIServer, obj Object) {
	t.Helper()
	var res outcome
	api.Client().Create(obj, &res)
	eng.Run()
	if res.calls != 1 || res.err != nil {
		t.Fatalf("create %s: done ran %d time(s), err %v", obj.GetMeta().Key(), res.calls, res.err)
	}
}

// TestStaleUpdateConflicts is the optimistic-concurrency contract: an
// Update carrying a ResourceVersion that another committed write has
// overtaken fails with ErrConflict and leaves the store untouched.
func TestStaleUpdateConflicts(t *testing.T) {
	eng, api := newTestAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})

	// Two readers fetch the same revision.
	a := editable[*Job](api.Get(KindJob, "ns", "j"))
	b := editable[*Job](api.Get(KindJob, "ns", "j"))

	a.Spec.Parallelism = 2
	var resA outcome
	api.Client().Update(a, &resA)
	eng.Run()
	if resA.err != nil {
		t.Fatalf("first update: %v", resA.err)
	}

	b.Spec.Parallelism = 9
	var resB outcome
	api.Client().Update(b, &resB)
	eng.Run()
	if !errors.Is(resB.err, ErrConflict) {
		t.Fatalf("stale update err = %v, want ErrConflict", resB.err)
	}
	got, _ := api.Get(KindJob, "ns", "j")
	if got.(*Job).Spec.Parallelism != 2 {
		t.Errorf("stale update overwrote store: parallelism = %d", got.(*Job).Spec.Parallelism)
	}

	// ResourceVersion 0 skips the precondition (blind write).
	blind := got.Clone().(*Job)
	blind.Meta.ResourceVersion = 0
	blind.Spec.Parallelism = 5
	var resC outcome
	api.Client().Update(blind, &resC)
	eng.Run()
	if !resC.completed() || resC.err != nil {
		t.Fatalf("blind update: completed %v, err %v", resC.completed(), resC.err)
	}
}

// TestPatchConverges drives the read-modify-write verb against an
// interfering writer: the losing attempt re-reads and reapplies, so the
// mutation lands on top of the interferer's state instead of clobbering it.
func TestPatchConverges(t *testing.T) {
	// Zero jitter makes commits land in scheduling order, so the
	// interleaving below is deterministic: the interfering write is
	// scheduled (and therefore commits) before the helper's first update.
	eng := sim.NewEngine(1)
	api := NewAPIServer(eng, APILatency{Request: 10 * time.Millisecond, WatchDelivery: 25 * time.Millisecond})
	cli := api.Client()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})

	// The interferer bumps Parallelism through a blind write racing the
	// retrying updater, which attaches a finalizer.
	interfere := func() {
		j := editable[*Job](api.Get(KindJob, "ns", "j"))
		j.Meta.ResourceVersion = 0
		j.Spec.Parallelism++
		api.Client().Update(j, nil)
	}
	interfere()

	mutations := 0
	var res outcome
	cli.Patch(KindJob, "ns", "j", mutation{func(obj Object) bool {
		mutations++
		m := obj.GetMeta()
		if m.HasFinalizer("test/f") {
			return false
		}
		m.AddFinalizer("test/f")
		return true
	}, &res})
	eng.Run()
	if !res.completed() || res.err != nil {
		t.Fatalf("patch: completed %v, err %v", res.completed(), res.err)
	}
	if mutations != 2 {
		t.Errorf("mutate ran %d times, want 2 (first attempt loses to the interferer)", mutations)
	}
	got, _ := api.Get(KindJob, "ns", "j")
	if !got.GetMeta().HasFinalizer("test/f") {
		t.Error("finalizer lost")
	}
	if got.(*Job).Spec.Parallelism != 1 {
		t.Errorf("interfering write lost: parallelism = %d", got.(*Job).Spec.Parallelism)
	}
}

// TestWatchEventsArriveInCommitOrder pins the FIFO delivery contract: a
// watcher observes one object's events in commit order (monotonically
// increasing resource versions) even though each delivery draws its own
// watch-delivery jitter.
func TestWatchEventsArriveInCommitOrder(t *testing.T) {
	// High jitter maximizes the chance of reordering if delivery were not
	// serialized per watcher.
	for seed := int64(1); seed <= 20; seed++ {
		eng := sim.NewEngine(seed)
		api := NewAPIServer(eng, APILatency{
			Request: time.Millisecond, WatchDelivery: 25 * time.Millisecond, Jitter: 0.9})
		var seen []int64
		api.Watch(KindJob, func(ev Event) {
			seen = append(seen, ev.Object.GetMeta().ResourceVersion)
		})
		job := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}}
		api.Client().Create(job, nil)
		eng.Run()
		for i := 0; i < 5; i++ {
			j := editable[*Job](api.Get(KindJob, "ns", "j"))
			j.Spec.Parallelism = i + 1
			api.Client().Update(j, nil)
			eng.Run()
		}
		if len(seen) != 6 {
			t.Fatalf("seed %d: saw %d events, want 6", seed, len(seen))
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				t.Fatalf("seed %d: events out of commit order: %v", seed, seen)
			}
		}
	}
}

// TestListerReflectsEventBeforeHandlers is the informer ordering guarantee
// the VNI pod gate depends on: when a watch handler fires, the shared
// informer cache (and its indexes) already contain the event, so a gate
// check triggered by the handler resolves correctly even though the cache
// as a whole is inside its staleness window.
func TestListerReflectsEventBeforeHandlers(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	inf := cli.Informer(KindPod)
	inf.AddIndex(IndexPodJob, PodJobIndex)
	lister := inf.Lister()

	checked := 0
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		checked++
		key := ev.Object.GetMeta().Key()
		if _, ok := lister.Get(ev.Object.GetMeta().Namespace, ev.Object.GetMeta().Name); ok != (ev.Type != EventDeleted) {
			t.Errorf("cache out of sync with %s event for %s", ev.Type, key)
		}
		if ev.Type != EventDeleted {
			p := ev.Object.(*Pod)
			if n := lister.IndexCount(IndexPodJob, IndexKey{p.Meta.Namespace, p.Meta.Labels["job-name"]}); n != 1 {
				t.Errorf("index not updated before handler: count = %d", n)
			}
		}
	})
	pod := &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p",
		Labels: map[string]string{"job-name": "j"}}}
	api.Client().Create(pod, nil)
	eng.Run()
	api.Client().Delete(KindPod, "ns", "p", nil)
	eng.Run()
	if checked != 2 {
		t.Fatalf("handler ran %d times, want 2", checked)
	}
}

// TestListerUnchangedTracksTheCache: a poller that keeps its last answer
// while Unchanged says so must never keep one the cache has outgrown. The
// cached count follows the real one through create, status update, delete
// and a relist, and a skipped read in the stale window is still counted.
func TestListerUnchangedTracksTheCache(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	inf := cli.Informer(KindPod)
	lister := inf.Lister()

	var mark uint64
	cached, recounts := -1, 0
	poll := func(where string) {
		t.Helper()
		if !lister.Unchanged(&mark) {
			cached = len(lister.List("ns"))
			recounts++
		}
		if want := len(lister.List("ns")); cached != want {
			t.Fatalf("%s: kept answer %d, the cache says %d", where, cached, want)
		}
	}
	poll("empty cache") // the zero mark has seen nothing: must count
	poll("empty cache, again")
	if recounts != 1 {
		t.Fatalf("recounted %d times over an untouched cache, want 1", recounts)
	}
	for _, name := range []string{"a", "b"} {
		cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name}}, nil)
		eng.Run()
		poll("after create " + name)
	}
	cli.Delete(KindPod, "ns", "a", nil)
	eng.Run()
	poll("after delete")
	inf.relist()
	poll("after relist")
	if recounts != 5 {
		t.Errorf("recounted %d times over 4 cache changes, want 5", recounts)
	}

	inf.stale = true
	before := inf.staleReads
	poll("stale window") // Unchanged stands for one read, the check's own List is another
	if got := inf.staleReads - before; got != 2 {
		t.Errorf("a skipped read plus a real one counted %d stale reads, want 2", got)
	}
}

// TestGateResolvesDuringStalenessWindow reproduces the VNI gate flow at the
// informer level: a consumer whose requeue is driven by the ADDED event of
// the object it gates on must observe that object through the lister, even
// though a raw store read and the cache disagree during the watch-delivery
// window.
func TestGateResolvesDuringStalenessWindow(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	const kindCRD Kind = "GateCRD"
	lister := cli.Lister(kindCRD)

	gateOpen := func() bool {
		_, ok := lister.Get("ns", "crd")
		return ok
	}
	var observed []bool
	cli.Watch(kindCRD, WatchOptions{}, func(ev Event) {
		if ev.Type == EventAdded {
			observed = append(observed, gateOpen())
		}
	})

	committed := false
	api.Client().Create(&Custom{Meta: Meta{Kind: kindCRD, Namespace: "ns", Name: "crd"}}, WroteFunc(func(err error) {
		if err != nil {
			t.Errorf("create: %v", err)
		}
		committed = true
		// Inside the staleness window: committed to the store, but the
		// informer has not seen it yet — the gate must simply stay
		// closed (no false positive, no crash) until the event lands.
		if gateOpen() {
			t.Error("gate opened before the informer absorbed the commit")
		}
	}))
	eng.Run()
	if !committed {
		t.Fatal("create never completed")
	}
	if len(observed) != 1 || !observed[0] {
		t.Fatalf("gate check driven by the ADDED event saw %v, want [true]", observed)
	}
}

// TestFilteredWatchScopes verifies namespace and selector scoping of watch
// registrations against the kind-wide broadcast.
func TestFilteredWatchScopes(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	var nsEvents, selEvents, allEvents int
	cli.Watch(KindPod, WatchOptions{Namespace: "a"}, func(Event) { nsEvents++ })
	cli.Watch(KindPod, WatchOptions{Selector: func(o Object) bool {
		return o.(*Pod).Spec.NodeName == "node1"
	}}, func(Event) { selEvents++ })
	cli.Watch(KindPod, WatchOptions{}, func(Event) { allEvents++ })

	for i, tc := range []struct {
		ns, node string
	}{{"a", "node0"}, {"b", "node1"}, {"b", "node0"}} {
		api.Client().Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: tc.ns, Name: fmt.Sprintf("p%d", i)},
			Spec: PodSpec{NodeName: tc.node}}, nil)
	}
	eng.Run()
	if nsEvents != 1 || selEvents != 1 || allEvents != 3 {
		t.Errorf("events: ns=%d sel=%d all=%d, want 1/1/3", nsEvents, selEvents, allEvents)
	}
}

// TestOrphanGCDeterministicOrder pins the collectOrphans satellite fix:
// children of a deleted owner disappear in sorted (kind, key) order, run
// after run, and each deletion costs one request delay, not two.
func TestOrphanGCDeterministicOrder(t *testing.T) {
	ordersSeen := map[string]bool{}
	for run := 0; run < 5; run++ {
		eng := sim.NewEngine(7) // fixed seed: order must not depend on map iteration
		api := NewAPIServer(eng, DefaultAPILatency())
		mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "owner"}})
		got, _ := api.Get(KindJob, "ns", "owner")
		uid := got.GetMeta().UID
		for _, name := range []string{"c3", "c1", "c2"} {
			api.Client().Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name, OwnerUID: uid}}, nil)
			api.Client().Create(&Custom{Meta: Meta{Kind: "Child", Namespace: "ns", Name: name, OwnerUID: uid}}, nil)
		}
		eng.Run()
		var order []string
		api.Watch(KindPod, func(ev Event) {
			if ev.Type == EventDeleted {
				order = append(order, "Pod/"+ev.Object.GetMeta().Name)
			}
		})
		api.Watch("Child", func(ev Event) {
			if ev.Type == EventDeleted {
				order = append(order, "Child/"+ev.Object.GetMeta().Name)
			}
		})
		api.Client().Delete(KindJob, "ns", "owner", nil)
		eng.Run()
		if len(order) != 6 {
			t.Fatalf("gc deleted %d children, want 6", len(order))
		}
		ordersSeen[fmt.Sprint(order)] = true
	}
	if len(ordersSeen) != 1 {
		t.Errorf("gc deletion order varies across identical runs: %v", ordersSeen)
	}
}

// TestOrphanGCAllocatesNothing holds the garbage collector to recycled
// records: once warm, reaping an owner of two children (the owner's delete
// and both of theirs) allocates nothing. A fresh orphan slice per owner, or
// sort.Slice in place of slices.SortFunc, fails it.
func TestOrphanGCAllocatesNothing(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	reap := func() uint64 {
		owner := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "owner"}}
		mustCreate(t, eng, api, owner)
		for _, name := range []string{"c2", "c1"} {
			cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name, OwnerUID: owner.Meta.UID}}, nil)
		}
		eng.Run()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		cli.Delete(KindJob, "ns", "owner", nil)
		eng.Run()
		runtime.ReadMemStats(&ms)
		if n := len(api.List(KindPod, "ns")); n != 0 {
			t.Fatalf("%d children outlive their owner", n)
		}
		return ms.Mallocs - before
	}
	for i := 0; i < 3; i++ {
		reap()
	}
	for i := 0; i < 20; i++ {
		if got := reap(); got != 0 {
			t.Fatalf("reap %d allocates %d objects, want 0", i, got)
		}
	}
	if n := len(held(t, "orphans", &api.orphans, 0)); n != 2 {
		t.Errorf("the collector's free list holds %d records, want the 2 that were in flight", n)
	}
}

// TestDormantWritesAreIdentity pins the write policy's dormant contract for
// all six verbs. On a server whose fault layer was never armed a verb costs
// exactly what its bare commit costs — one engine event behind one jittered
// request delay, nothing for the synchronous status write — with no timer
// and no extra RNG draw: a same-seed twin engine running the in-package raw
// commit ends on the same step count and the same next random number. Each
// allocation ceiling is what the retry helper this verb replaced allocated
// for the same cheap write on the same fixture; TestWriteAllocations pins
// what a write allocates now.
func TestDormantWritesAreIdentity(t *testing.T) {
	noop := func(Object) bool { return false }
	touch := func(obj Object) bool { obj.(*Job).Status.Active++; return true }
	cases := []struct {
		name string
		verb func(cli *Client, done Wrote)
		// raw is the reference: the bare commit function behind one request
		// delay, or on the spot for the synchronous status write.
		raw func(eng *sim.Engine, api *APIServer)
		// cheap is the verb's cheapest outcome (an error or a no-op), the
		// steady state AllocsPerRun can repeat; ceiling bounds its allocations.
		cheap   func(cli *Client)
		ceiling float64
	}{
		{name: "Create",
			verb: func(cli *Client, done Wrote) { issueVerb("Create", cli, done) },
			raw: func(eng *sim.Engine, api *APIServer) {
				eng.After(api.reqDelay(), func() {
					api.commitCreate(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
				})
			},
			cheap: func(cli *Client) {
				cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "victim"}}, nil)
			},
			ceiling: 14},
		{name: "Update",
			verb: func(cli *Client, done Wrote) { issueVerb("Update", cli, done) },
			raw: func(eng *sim.Engine, api *APIServer) {
				job := storedJob(api).Clone().(*Job)
				widen(job)
				eng.After(api.reqDelay(), func() { api.commitUpdate(job) })
			},
			cheap: func(cli *Client) {
				cli.Update(&Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "nope"}}, nil)
			},
			ceiling: 15},
		{name: "Delete",
			verb: func(cli *Client, done Wrote) { issueVerb("Delete", cli, done) },
			raw: func(eng *sim.Engine, api *APIServer) {
				eng.After(api.reqDelay(), func() { api.commitDelete(KindPod, "ns", "victim") })
			},
			cheap:   func(cli *Client) { cli.Delete(KindPod, "ns", "nope", nil) },
			ceiling: 13},
		{name: "RemoveFinalizer",
			verb: func(cli *Client, done Wrote) { issueVerb("RemoveFinalizer", cli, done) },
			raw: func(eng *sim.Engine, api *APIServer) {
				eng.After(api.reqDelay(), func() { api.commitRemoveFinalizer(KindJob, "ns", "j", "test/f") })
			},
			cheap:   func(cli *Client) { cli.RemoveFinalizer(KindJob, "ns", "j", "absent", nil) },
			ceiling: 15},
		{name: "UpdateStatus",
			verb:    func(cli *Client, done Wrote) { cli.UpdateStatus(KindJob, "ns", "j", mutation{touch, done}) },
			raw:     func(_ *sim.Engine, api *APIServer) { api.commitStatus(KindJob, "ns", "j", MutateFunc(touch)) },
			cheap:   func(cli *Client) { cli.UpdateStatus(KindJob, "ns", "j", MutateFunc(noop)) },
			ceiling: 6},
		{name: "Patch",
			verb: func(cli *Client, done Wrote) { issueVerb("Patch", cli, done) },
			raw: func(eng *sim.Engine, api *APIServer) {
				job := storedJob(api).Clone().(*Job)
				widen(job)
				eng.After(api.reqDelay(), func() { api.commitUpdate(job) })
			},
			cheap:   func(cli *Client) { cli.Patch(KindJob, "ns", "j", MutateFunc(noop)) },
			ceiling: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, cli := writeFixture(t)
			twinEng, twinAPI, twinCli := writeFixture(t)
			// A watcher on each kind, so commits draw delivery jitter too.
			for _, c := range []*Client{cli, twinCli} {
				c.Informer(KindJob)
				c.Informer(KindPod)
			}
			steps, twinSteps := eng.Steps, twinEng.Steps

			var res outcome
			tc.verb(cli, &res)
			tc.raw(twinEng, twinAPI)
			if got, want := eng.Pending(), twinEng.Pending(); got != want {
				t.Errorf("verb queued %d event(s), raw commit %d", got, want)
			}
			eng.Run()
			twinEng.Run()
			if res.calls != 1 || res.err != nil {
				t.Fatalf("verb: done ran %d time(s), err %v", res.calls, res.err)
			}
			if got, want := eng.Steps-steps, twinEng.Steps-twinSteps; got != want {
				t.Errorf("verb ran %d engine step(s), raw commit %d", got, want)
			}
			if got, want := eng.Rand().Int63(), twinEng.Rand().Int63(); got != want {
				t.Errorf("RNG streams diverged: next draw %d after the verb, %d after the raw commit", got, want)
			}
			if cli.FaultsArmed() {
				t.Error("a write armed the fault layer")
			}

			allocs := testing.AllocsPerRun(100, func() {
				tc.cheap(cli)
				eng.Run()
			})
			if allocs > tc.ceiling {
				t.Errorf("%v allocs per write, ceiling %v", allocs, tc.ceiling)
			}
			t.Logf("%v allocs per write (ceiling %v)", allocs, tc.ceiling)
		})
	}
}
