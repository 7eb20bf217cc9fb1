package k8s

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// verbCase is one of the six client writes aimed at the writeFixture: issue
// fires it, applied reports whether its effect reached the store.
type verbCase struct {
	name    string
	issue   func(cli *Client) *Response
	applied func(api *APIServer) bool
	// sync marks UpdateStatus: it commits on the spot, so it spends no time
	// on the wire for a deadline to cut short.
	sync bool
}

// writeFixture boots a server holding job ns/j (finalizer test/f) and pod
// ns/victim, the objects the verbCases write to.
func writeFixture(t *testing.T) (*sim.Engine, *APIServer, *Client) {
	t.Helper()
	eng, api := newTestAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j", Finalizers: []string{"test/f"}}})
	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "victim"}})
	return eng, api, api.Client()
}

// storedJob reads the fixture's job: the committed object, read-only.
func storedJob(api *APIServer) *Job {
	obj, _ := api.Get(KindJob, "ns", "j")
	return obj.(*Job)
}

func widen(obj Object) bool {
	obj.(*Job).Spec.Parallelism = 7
	return true
}

var verbCases = []verbCase{
	{name: "Create",
		issue: func(cli *Client) *Response {
			return cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
		},
		applied: func(api *APIServer) bool { _, ok := api.Get(KindPod, "ns", "p"); return ok }},
	{name: "Update",
		issue: func(cli *Client) *Response {
			job := storedJob(cli.API()).Clone().(*Job) // carries the stored ResourceVersion
			widen(job)
			return cli.Update(job)
		},
		applied: func(api *APIServer) bool { return storedJob(api).Spec.Parallelism == 7 }},
	{name: "Delete",
		issue:   func(cli *Client) *Response { return cli.Delete(KindPod, "ns", "victim") },
		applied: func(api *APIServer) bool { _, ok := api.Get(KindPod, "ns", "victim"); return !ok }},
	{name: "RemoveFinalizer",
		issue:   func(cli *Client) *Response { return cli.RemoveFinalizer(KindJob, "ns", "j", "test/f") },
		applied: func(api *APIServer) bool { return !storedJob(api).Meta.HasFinalizer("test/f") }},
	{name: "UpdateStatus", sync: true,
		issue: func(cli *Client) *Response {
			return cli.UpdateStatus(KindJob, "ns", "j", func(obj Object) bool {
				obj.(*Job).Status.Active = 3
				return true
			})
		},
		applied: func(api *APIServer) bool { return storedJob(api).Status.Active == 3 }},
	{name: "Patch",
		issue:   func(cli *Client) *Response { return cli.Patch(KindJob, "ns", "j", widen) },
		applied: func(api *APIServer) bool { return storedJob(api).Spec.Parallelism == 7 }},
}

// issueVerb fires the named verbCase.
func issueVerb(name string, cli *Client) *Response {
	for _, v := range verbCases {
		if v.name == name {
			return v.issue(cli)
		}
	}
	panic("no verbCase " + name)
}

// TestWritePolicyUnderFaults is the write policy's fault contract, the same
// for all six verbs because they share one attempt loop: an outage shorter
// than the retry budget is absorbed, one that outlasts it surfaces as the
// typed ErrRetriesExhausted, and a commit slower than the armed deadline is
// dropped on the wire, never half-applied.
func TestWritePolicyUnderFaults(t *testing.T) {
	for _, v := range verbCases {
		t.Run(v.name+"/outage within budget", func(t *testing.T) {
			eng, api, cli := writeFixture(t)
			api.FailAPIServer()
			if api.Availability() != AvailDown {
				t.Fatalf("availability = %v, want down", api.Availability())
			}
			resp := v.issue(cli)
			eng.RunFor(300 * time.Millisecond)
			if resp.Completed() {
				t.Fatalf("completed during the outage: %v", resp.Err())
			}
			api.RecoverAPIServer()
			eng.Run()
			if err := resp.Err(); err != nil {
				t.Fatalf("after recovery: %v", err)
			}
			if !v.applied(api) {
				t.Error("write missing from the store after recovery")
			}
			if cli.Stats().Retries == 0 {
				t.Error("no retries counted across the outage")
			}
		})
		t.Run(v.name+"/outage past budget", func(t *testing.T) {
			eng, api, cli := writeFixture(t)
			api.FailAPIServer()
			resp := v.issue(cli)
			eng.Run()
			err := resp.Err()
			if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrUnavailable) {
				t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrUnavailable", err)
			}
			if st := cli.Stats(); st.Exhausted != 1 || st.Retries != retryBudget {
				t.Errorf("exhausted = %d, retries = %d, want 1 and %d", st.Exhausted, st.Retries, retryBudget)
			}
			if v.applied(api) {
				t.Error("exhausted write reached the store")
			}
		})
		t.Run(v.name+"/commit past deadline", func(t *testing.T) {
			eng, api, cli := writeFixture(t)
			// Latency factor 1000 puts every commit (~6s) far past the 250ms
			// deadline: every attempt times out and the budget drains.
			api.DegradeAPIServer(1000, 0)
			resp := v.issue(cli)
			if v.sync {
				if err := resp.Err(); err != nil || !v.applied(api) || cli.Stats().Timeouts != 0 {
					t.Fatalf("synchronous write: err = %v, applied = %v, timeouts = %d",
						err, v.applied(api), cli.Stats().Timeouts)
				}
				return
			}
			eng.Run()
			err := resp.Err()
			if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrTimeout", err)
			}
			if got := cli.Stats().Timeouts; got != retryBudget+1 {
				t.Errorf("timeouts = %d, want %d (every attempt)", got, retryBudget+1)
			}
			if v.applied(api) {
				t.Error("timed-out write committed anyway")
			}
		})
	}
}

// conflictStorm makes every conflict-checked write to job ns/j lose: a 1ms
// status-write ticker moves the stored revision between any read and its
// Update commit (request latency ≥ 3.9ms). The returned func stops it.
func conflictStorm(eng *sim.Engine, cli *Client) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		cli.UpdateStatus(KindJob, "ns", "j", func(obj Object) bool {
			obj.(*Job).Status.Failed++
			return true
		})
		eng.After(time.Millisecond, tick)
	}
	eng.After(time.Millisecond, tick)
	return func() { stopped = true }
}

// TestWritePolicyConflicts is the conflict column of the policy: Update
// hands ErrConflict straight back, Patch re-reads (TestPatchConverges covers
// the re-read landing) and gives up with the typed error on the 17th
// consecutive conflict instead of spinning unboundedly.
func TestWritePolicyConflicts(t *testing.T) {
	t.Run("Update passes through", func(t *testing.T) {
		eng, _, cli := writeFixture(t)
		stop := conflictStorm(eng, cli)
		resp := issueVerb("Update", cli)
		eng.RunUntilDone(resp.Completed, eng.Now().Add(time.Hour))
		stop()
		if err := resp.Err(); !errors.Is(err, ErrConflict) || errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("err = %v, want bare ErrConflict", err)
		}
		if st := cli.Stats(); st.Conflicts != 0 || st.Retries != 0 {
			t.Errorf("Update spent policy on a conflict: %+v", st)
		}
	})
	t.Run("Patch caps re-reads", func(t *testing.T) {
		eng, _, cli := writeFixture(t)
		stop := conflictStorm(eng, cli)
		mutations := 0
		resp := cli.Patch(KindJob, "ns", "j", func(obj Object) bool {
			mutations++
			return widen(obj)
		})
		eng.RunUntilDone(resp.Completed, eng.Now().Add(time.Hour))
		stop()
		if err := resp.Err(); !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrConflict) {
			t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrConflict", err)
		}
		if want := maxConflicts + 1; mutations != want {
			t.Errorf("mutate ran %d times, want %d (initial + capped re-reads)", mutations, want)
		}
		if st := cli.Stats(); st.Conflicts != maxConflicts+1 || st.Exhausted != 1 {
			t.Errorf("conflicts = %d, exhausted = %d, want %d and 1", st.Conflicts, st.Exhausted, maxConflicts+1)
		}
	})
}

// TestPatchBacksOffWhenArmed verifies the jittered conflict backoff engages
// once the fault layer is armed: re-reads 2..N wait, so the capped sequence
// takes macroscopic virtual time instead of completing in a burst of
// immediate re-reads.
func TestPatchBacksOffWhenArmed(t *testing.T) {
	elapsed := func(arm bool) sim.Duration {
		eng, api, cli := writeFixture(t)
		if arm {
			api.RecoverAPIServer() // arms the layer without injecting faults
		}
		stop := conflictStorm(eng, cli)
		start := eng.Now()
		resp := cli.Patch(KindJob, "ns", "j", widen)
		eng.RunUntilDone(resp.Completed, eng.Now().Add(time.Hour))
		stop()
		if err := resp.Err(); !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("err = %v, want ErrRetriesExhausted", err)
		}
		return eng.Now().Sub(start)
	}

	fast := elapsed(false)
	slow := elapsed(true)
	if slow < 2*fast {
		t.Errorf("armed conflict chain took %v, unarmed %v; want clear backoff separation", slow, fast)
	}
}

// TestOrphanGCSurvivesOutage pins the garbage collector's exemption from
// the availability model: an outage that begins right after an owner's
// deletion committed — inside the request delay of the GC's own deletes —
// must not leak the children, because nobody retries a GC write.
func TestOrphanGCSurvivesOutage(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	owner := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "owner"}}
	mustCreate(t, eng, api, owner)
	for i := 0; i < 3; i++ {
		mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns",
			Name: fmt.Sprintf("child%d", i), OwnerUID: owner.Meta.UID}})
	}

	cli.Delete(KindJob, "ns", "owner").Done(func(err error) {
		if err != nil {
			t.Errorf("owner delete: %v", err)
		}
		api.FailAPIServer()
	})
	eng.RunFor(time.Second)
	api.RecoverAPIServer()
	eng.RunFor(10 * time.Second)
	if left := api.List(KindPod, "ns"); len(left) != 0 {
		t.Fatalf("%d of 3 owned pods leaked past the outage", len(left))
	}
}

// TestDegradedModeErrorsAndLatency checks degraded mode: elevated request
// latency and probabilistic write errors, both recovering cleanly.
func TestDegradedModeErrorsAndLatency(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	api.DegradeAPIServer(10, 0.5)
	if api.Availability() != AvailDegraded {
		t.Fatalf("availability = %v, want degraded", api.Availability())
	}

	// With error probability 0.5 and a generous retry budget, every write
	// eventually lands; some retries must have happened across 20 writes.
	var resps []*Response
	for i := 0; i < 20; i++ {
		resps = append(resps, cli.Create(&Pod{
			Meta: Meta{Kind: KindPod, Namespace: "ns", Name: fmt.Sprintf("p%02d", i)},
		}))
	}
	eng.Run()
	for i, r := range resps {
		if err := r.Err(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := cli.Stats().Retries; got == 0 {
		t.Error("no retries under errProb=0.5")
	}

	api.RecoverAPIServer()
	resp := cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "after"}})
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestWatchBreakRelistConverges is the tentpole repair loop: a silently
// severed informer stream is detected via the per-kind sequence gap and
// repaired by relist-and-replay, after which the cache matches the store
// and handlers have seen the missed changes.
func TestWatchBreakRelistConverges(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	var adds, dels int
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		switch ev.Type {
		case EventAdded:
			adds++
		case EventDeleted:
			dels++
		}
	})
	// Note: once the prober is enabled, eng.Run() would never drain (the
	// tick reschedules itself); these tests advance time with RunFor.
	cli.ArmFaults()

	cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "keep"}})
	cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "gone"}})
	eng.RunFor(60 * time.Millisecond)
	if adds != 2 {
		t.Fatalf("adds before break = %d, want 2", adds)
	}

	if n := api.BreakWatch(KindPod); n == 0 {
		t.Fatal("no watchers broken")
	}
	// Commits behind the broken stream: one new pod, one deletion.
	cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "missed"}})
	cli.Delete(KindPod, "ns", "gone")
	eng.RunFor(50 * time.Millisecond)
	if adds != 2 || dels != 0 {
		t.Fatalf("events leaked through broken watch: adds=%d dels=%d", adds, dels)
	}

	// The prober detects the stalled gap within two periods and relists.
	eng.RunFor(400 * time.Millisecond)
	if err := cli.VerifyCaches(); err != nil {
		t.Fatalf("caches diverged after relist: %v", err)
	}
	if adds != 3 || dels != 1 {
		t.Errorf("replay incomplete: adds=%d dels=%d, want 3/1", adds, dels)
	}
	st := cli.Stats()
	if st.Relists == 0 {
		t.Error("no relists counted")
	}
	if st.MaxStalenessUs <= 0 {
		t.Error("max staleness not measured")
	}

	// Repaired stream: fresh commits flow again without another relist.
	before := cli.Stats().Relists
	cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "fresh"}})
	eng.RunFor(60 * time.Millisecond)
	if adds != 4 {
		t.Errorf("post-repair add not delivered: adds=%d", adds)
	}
	cli.StopFaultRecovery()
	if got := cli.Stats().Relists; got != before {
		t.Errorf("spurious relist after repair: %d -> %d", before, got)
	}
}

// TestRelistRebuildsIndexesAtomically is the index-consistency satellite:
// handlers running during the relist replay must never observe a
// half-rebuilt cache — every index (pods-by-job, owner, and a custom one)
// agrees with the object map at every replayed event.
func TestRelistRebuildsIndexesAtomically(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	inf := cli.Informer(KindPod)
	inf.AddIndex(IndexPodJob, PodJobIndex)
	inf.AddIndex(IndexOwner, OwnerIndex)
	// A custom index in the spirit of vniapi's VNIs-by-job: pods by node.
	inf.AddIndex("by-node", func(obj Object) IndexKey { return IndexKey{Name: obj.(*Pod).Spec.NodeName} })
	lister := inf.Lister()

	// checkConsistent recomputes every index from the lister's full List
	// and cross-checks ByIndex; any half-updated swap diverges.
	checkConsistent := func(where string) {
		all := lister.List("")
		type want struct{ job, owner, node map[IndexKey]int }
		w := want{map[IndexKey]int{}, map[IndexKey]int{}, map[IndexKey]int{}}
		for _, obj := range all {
			p := obj.(*Pod)
			if v := PodJobIndex(p); v != (IndexKey{}) {
				w.job[v]++
			}
			if v := OwnerIndex(p); v != (IndexKey{}) {
				w.owner[v]++
			}
			if p.Spec.NodeName != "" {
				w.node[IndexKey{Name: p.Spec.NodeName}]++
			}
		}
		for v, n := range w.job {
			if got := lister.IndexCount(IndexPodJob, v); got != n {
				t.Fatalf("%s: index %s[%s] = %d, want %d", where, IndexPodJob, v, got, n)
			}
		}
		for v, n := range w.owner {
			if got := lister.IndexCount(IndexOwner, v); got != n {
				t.Fatalf("%s: index %s[%s] = %d, want %d", where, IndexOwner, v, got, n)
			}
		}
		for v, n := range w.node {
			if got := lister.IndexCount("by-node", v); got != n {
				t.Fatalf("%s: index by-node[%s] = %d, want %d", where, v, got, n)
			}
		}
	}

	replayed := 0
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		replayed++
		checkConsistent(fmt.Sprintf("handler at event %d (%v %s)",
			replayed, ev.Type, ev.Object.GetMeta().Key()))
	})
	cli.ArmFaults()

	pod := func(name, job, node string, owner UID) *Pod {
		return &Pod{
			Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name,
				Labels: map[string]string{"job-name": job}, OwnerUID: owner},
			Spec: PodSpec{NodeName: node},
		}
	}
	cli.Create(pod("a", "j1", "n0", "uid-1"))
	cli.Create(pod("b", "j1", "n1", "uid-1"))
	cli.Create(pod("c", "j2", "n0", "uid-2"))
	eng.RunFor(60 * time.Millisecond)

	api.BreakWatch(KindPod)
	// Mutations behind the severed stream: delete, add, move.
	cli.Delete(KindPod, "ns", "b")
	cli.Create(pod("d", "j2", "n1", "uid-2"))
	eng.RunFor(30 * time.Millisecond)
	cli.UpdateStatus(KindPod, "ns", "c", func(obj Object) bool {
		obj.(*Pod).Spec.NodeName = "n2"
		return true
	})

	eng.RunFor(time.Second)
	if err := cli.VerifyCaches(); err != nil {
		t.Fatalf("caches diverged: %v", err)
	}
	checkConsistent("final")
	if cli.Stats().Relists == 0 {
		t.Fatal("no relist happened; test exercised nothing")
	}
	cli.StopFaultRecovery()
}

// TestCancelPendingDeliveries is the end-of-run teardown satellite: queued
// watch deliveries must not hold RunUntilDone open after the last object
// is deleted.
func TestCancelPendingDeliveries(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	cli.Watch(KindPod, WatchOptions{}, func(Event) {})

	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	cli.Delete(KindPod, "ns", "p")
	// Run just past the request delay: the delete committed, its delivery
	// timer is still queued.
	eng.RunFor(10 * time.Millisecond)
	if eng.Pending() == 0 {
		t.Fatal("expected a queued watch delivery")
	}

	if n := api.CancelPendingDeliveries(); n == 0 {
		t.Fatal("nothing cancelled")
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending = %d after cancel, want 0 (RunUntilDone would block)", got)
	}
	// Idempotent and safe on an empty queue.
	if n := api.CancelPendingDeliveries(); n != 0 {
		t.Fatalf("second cancel dropped %d deliveries", n)
	}
}

// TestLostWriteEscapesGapDetection pins the debug hook the fuzzer's
// eventual-convergence invariant self-tests against: a lost write (commit
// without sequence bump) is invisible to the prober but caught by
// VerifyCaches.
func TestLostWriteEscapesGapDetection(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	cli.Informer(KindPod)
	cli.ArmFaults()

	cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	eng.RunFor(60 * time.Millisecond)
	api.SetDebugLoseWrite(KindPod, 1)
	cli.UpdateStatus(KindPod, "ns", "p", func(obj Object) bool {
		obj.(*Pod).Status.Phase = PodRunning
		return true
	})

	// Give the prober plenty of time: no gap exists, so no relist repairs
	// the divergence.
	eng.RunFor(time.Second)
	cli.StopFaultRecovery()
	if err := cli.VerifyCaches(); err == nil {
		t.Fatal("VerifyCaches missed the lost write")
	} else if got := cli.Stats().Relists; got != 0 {
		t.Errorf("prober relisted %d times; the lost write should be invisible to gap detection", got)
	}
}
