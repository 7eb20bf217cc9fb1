package k8s

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// TestRecycledRequestsActOnce is the oracle behind recycling request
// records: a record goes back on the client's free list the moment its
// write completes, so an engine event that still held it — a commit the
// deadline failed to cancel, a deadline the commit failed to cancel — would
// act on whichever write took the record next. Under every fault the layer
// models at once (a degraded server that fails writes at random and commits
// past the deadline, an outage, conflicting Patches and Updates), a stream
// of all six verbs must still see each done run exactly once, with nil
// exactly when the write reached the store, and the free list must end up
// holding as many records as were ever in flight.
func TestRecycledRequestsActOnce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { checkRequestsActOnce(t, seed) })
	}
}

func checkRequestsActOnce(t *testing.T, seed int64) {
	const writes, jobs = 300, 3
	eng := sim.NewEngine(seed)
	api := NewAPIServer(eng, DefaultAPILatency())
	cli := api.Client()
	rec := cli.RecordCommits()
	for i := 0; i < jobs; i++ {
		mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: fmt.Sprint("j", i)}})
	}
	// One pod for each Delete and one finalized job for each
	// RemoveFinalizer to aim at, so the store says whether it landed.
	for i := 0; i < writes/6; i++ {
		mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: fmt.Sprint("d", i)}})
		mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: fmt.Sprint("f", i),
			Finalizers: []string{"test/f"}}})
	}
	// Every version any write commits, as the watch delivers it.
	committed := map[Object]bool{}
	for _, kind := range []Kind{KindJob, KindPod} {
		api.Watch(kind, func(ev Event) { committed[ev.Object] = true })
	}

	// Latency ×40 puts commits around the 250ms deadline, so attempts both
	// commit and time out; 0.3 of the rest fail. Then an outage longer than
	// some writes' retry budgets, the same degradation again, recovery.
	api.DegradeAPIServer(40, 0.3)
	start := eng.Now()
	eng.At(start.Add(time.Second), api.FailAPIServer)
	eng.At(start.Add(6*time.Second), func() { api.DegradeAPIServer(40, 0.3) })
	eng.At(start.Add(7*time.Second), api.RecoverAPIServer)

	type write struct {
		verb   string
		res    outcome
		landed func() bool // evaluated after the drain
		handed []Object    // the versions UpdateStatus and Patch were asked to fill
	}
	anyCommitted := func(w *write) bool {
		for _, obj := range w.handed {
			if committed[obj] {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	all := make([]*write, writes)
	inFlight, peak := 0, 0
	for i := range all {
		w := &write{}
		all[i] = w
		job := fmt.Sprint("j", rng.Intn(jobs))
		eng.At(start.Add(sim.Duration(i)*10*time.Millisecond), func() {
			done := WroteFunc(func(err error) { inFlight--; w.res.Wrote(err) })
			if inFlight++; inFlight > peak {
				peak = inFlight
			}
			fill := func(obj Object) bool {
				w.handed = append(w.handed, obj)
				obj.(*Job).Status.Active = i
				return true
			}
			switch i % 6 {
			case 0:
				w.verb = "Create"
				var obj Object = &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: fmt.Sprint("c", i)}}
				if i%5 == 0 {
					obj = &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: job}} // ErrAlreadyExists
				}
				w.landed = func() bool { return committed[obj] }
				cli.Create(obj, done)
			case 1:
				w.verb = "Update"
				obj := editable[*Job](api.Get(KindJob, "ns", job)) // conflicts with the Patches in flight
				obj.Spec.Parallelism = i
				w.landed = func() bool { return committed[obj] }
				cli.Update(obj, done)
			case 2:
				w.verb = "Delete"
				name := fmt.Sprint("d", i/6)
				w.landed = func() bool { _, ok := api.Get(KindPod, "ns", name); return !ok }
				cli.Delete(KindPod, "ns", name, done)
			case 3:
				w.verb = "RemoveFinalizer"
				name := fmt.Sprint("f", i/6)
				w.landed = func() bool {
					obj, _ := api.Get(KindJob, "ns", name)
					return !obj.GetMeta().HasFinalizer("test/f")
				}
				cli.RemoveFinalizer(KindJob, "ns", name, "test/f", done)
			case 4:
				w.verb = "UpdateStatus"
				w.landed = func() bool { return anyCommitted(w) }
				cli.UpdateStatus(KindJob, "ns", job, mutation{fill, done})
			case 5:
				w.verb = "Patch"
				w.landed = func() bool { return anyCommitted(w) }
				cli.Patch(KindJob, "ns", job, mutation{fill, done})
			}
		})
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("an engine event acted on a record no write holds: %v", p)
			}
		}()
		eng.Run()
	}()

	outcomes := map[string]int{}
	for i, w := range all {
		if w.res.calls != 1 {
			t.Fatalf("write %d (%s): done ran %d times", i, w.verb, w.res.calls)
		}
		if landed := w.landed(); landed != (w.res.err == nil) {
			t.Fatalf("write %d (%s): err %v, but the write reached the store: %v", i, w.verb, w.res.err, landed)
		}
		outcomes[fmt.Sprint(w.verb, " ", w.res.err == nil)]++
	}
	if got := len(held(t, "requests", &cli.requests, 0)); got < peak {
		t.Errorf("free list holds %d records after the drain, %d writes were in flight at most", got, peak)
	}
	st := cli.Stats()
	if st.Timeouts == 0 || st.Retries == 0 || st.Conflicts == 0 || st.Exhausted == 0 {
		t.Errorf("the faults were not all exercised: %+v", st)
	}
	if err := rec.Verify(); err != nil {
		t.Error(err)
	}
	t.Logf("peak %d in flight; %+v; outcomes %v", peak, st, outcomes)
}

// TestWriteAllocations pins what a write costs on a warm client and a
// healthy server: the version it commits and nothing else. The request
// record is recycled; Create and Update store the caller's struct, so
// Create pays only for the one string that holds the key and UID it stamps
// and Update for nothing; Patch, UpdateStatus and RemoveFinalizer pay for the one Clone
// they commit; Delete for nothing. Objects handed in are built outside the
// measurement: they are the caller's allocation.
func TestWriteAllocations(t *testing.T) {
	const runs = 100
	eng, api := newTestAPI()
	cli := api.Client()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})
	pods := func(prefix string) []Object {
		objs := make([]Object, runs+1) // AllocsPerRun runs once more to warm up
		for i := range objs {
			objs[i] = &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: fmt.Sprint(prefix, i)}}
		}
		return objs
	}
	// Grow the store to its size in the measurement, so map growth is not
	// counted against Create.
	for _, obj := range pods("warm") {
		cli.Create(obj, nil)
	}
	eng.Run()
	for i := 0; i <= runs; i++ {
		cli.Delete(KindPod, "ns", fmt.Sprint("warm", i), nil)
	}
	eng.Run()

	created, deleted := pods("p"), 0
	updates := make([]Object, runs+1)
	for i := range updates {
		job := editable[*Job](api.Get(KindJob, "ns", "j"))
		job.Meta.ResourceVersion = 0 // blind: each update replaces whatever is stored
		job.Spec.Parallelism = i
		updates[i] = job
	}
	names := make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprint("p", i)
	}
	bump := func(obj Object) bool { obj.(*Job).Status.Active++; return true }
	cases := []struct {
		verb  string
		write func(i int)
		want  float64
	}{
		{"Create", func(i int) { cli.Create(created[i], nil) }, 1},
		{"Update", func(i int) { cli.Update(updates[i], nil) }, 0},
		{"Patch", func(int) { cli.Patch(KindJob, "ns", "j", MutateFunc(bump)) }, 1},
		{"UpdateStatus", func(int) { cli.UpdateStatus(KindJob, "ns", "j", MutateFunc(bump)) }, 1},
		{"RemoveFinalizer", func(int) { cli.RemoveFinalizer(KindJob, "ns", "j", "test/f", nil) }, 1},
		{"Delete", func(int) { cli.Delete(KindPod, "ns", names[deleted], nil); deleted++ }, 0},
	}
	for _, tc := range cases {
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			tc.write(i)
			eng.Run()
			i++
		})
		if got != tc.want {
			t.Errorf("%s allocates %v objects per write, want %v", tc.verb, got, tc.want)
		}
	}
	if deleted != runs+1 || len(api.List(KindPod, "ns")) != 0 {
		t.Fatalf("deleted %d pods, %d left: the writes did not all land", deleted, len(api.List(KindPod, "ns")))
	}
	if got, ok := api.Get(KindJob, "ns", "j"); !ok || got.(*Job).Status.Active != 2*(runs+1) {
		t.Fatalf("job after the writes = %+v, want Active %d", got, 2*(runs+1))
	}
}
