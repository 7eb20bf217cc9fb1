package k8s

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// newTieAPI is an apiserver without jitter: every delivery of one instant's
// commits lands on one later instant, so only the engine's sequence numbers
// order them.
func newTieAPI() (*sim.Engine, *APIServer) {
	eng := sim.NewEngine(1)
	return eng, NewAPIServer(eng, APILatency{Request: 6 * time.Millisecond, WatchDelivery: 25 * time.Millisecond})
}

func bumpActive(obj Object) bool { obj.(*Job).Status.Active++; return true }

// queued lists a watcher's undelivered records, head first.
func queued(w *watcher) []*delivery {
	var out []*delivery
	for d := w.head; d != nil; d = d.next {
		out = append(out, d)
	}
	return out
}

func checkRecycled(t *testing.T, what string, recs []*delivery) {
	t.Helper()
	for i, d := range recs {
		if d.w != nil || d.ev.Object != nil || d.next != nil || d.timer.At() != 0 {
			t.Errorf("%s: pooled delivery record %d still holds %+v", what, i, *d)
		}
	}
}

// TestDeliveryOrderIsCommitOrderUnderTies: many commits in one instant, two
// watchers on the kind, no jitter, and a bystander event posted after each
// commit for the instant the deliveries land on. Each delivery's engine
// event is posted when its commit happens, so that instant runs commit by
// commit — watcher by watcher in registration order, then the bystander
// posted behind them — not one watcher's whole queue first, and not the
// bystanders ahead of deliveries armed only when their predecessor fired.
func TestDeliveryOrderIsCommitOrderUnderTies(t *testing.T) {
	eng, api := newTieAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})
	var got []string
	for _, name := range []string{"w1", "w2"} {
		api.Watch(KindJob, func(ev Event) { got = append(got, fmt.Sprintf("%s:%d", name, ev.Seq)) })
	}
	const commits = 50
	var want []string
	for i := 0; i < commits; i++ {
		api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive)) // commits on the spot
		seq := api.KindSeq(KindJob)
		eng.After(25*time.Millisecond, func() { got = append(got, fmt.Sprintf("x:%d", seq)) })
		want = append(want, fmt.Sprintf("w1:%d", seq), fmt.Sprintf("w2:%d", seq), fmt.Sprintf("x:%d", seq))
	}
	w1 := api.watchers[0]
	recs := queued(w1)
	if len(recs) != commits {
		t.Fatalf("watcher queue holds %d deliveries, want %d", len(recs), commits)
	}
	eng.Run()
	if !slices.Equal(got, want) {
		t.Fatalf("delivery order\n got %v\nwant %v", got, want)
	}
	if w1.head != nil || w1.tail != nil {
		t.Error("queue not empty after the engine drained")
	}
	checkRecycled(t, "after firing", recs)
}

// TestHandlerCommitsFromInsideDelivery: a handler that writes while its own
// delivery is being handed over re-enters notify on the watcher whose queue
// head was just popped. The new delivery must go behind what is queued.
func TestHandlerCommitsFromInsideDelivery(t *testing.T) {
	eng, api := newTieAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})
	var got []uint64
	api.Watch(KindJob, func(ev Event) {
		got = append(got, ev.Seq)
		if len(got) <= 3 { // the first three deliveries each commit once more
			api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
		}
	})
	first := api.KindSeq(KindJob) + 1
	for i := 0; i < 3; i++ {
		api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
	}
	eng.Run()
	var want []uint64
	for s := first; s < first+6; s++ {
		want = append(want, s)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered seqs %v, want %v", got, want)
	}
	if w := api.watchers[0]; w.head != nil || w.tail != nil {
		t.Error("queue not empty after the engine drained")
	}
}

// TestBrokenWatchDrainsWhatWasQueued: severing a stream drops the commits
// that follow, not the deliveries already on their way.
func TestBrokenWatchDrainsWhatWasQueued(t *testing.T) {
	eng, api := newTieAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})
	var got []uint64
	api.Watch(KindJob, func(ev Event) { got = append(got, ev.Seq) })
	api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
	api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
	queuedSeq := api.KindSeq(KindJob)
	if n := api.BreakWatch(KindJob); n != 1 {
		t.Fatalf("BreakWatch severed %d streams, want 1", n)
	}
	api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
	if n := len(queued(api.watchers[0])); n != 2 {
		t.Fatalf("queue holds %d deliveries after the break, want the 2 from before it", n)
	}
	eng.Run()
	if want := []uint64{queuedSeq - 1, queuedSeq}; !slices.Equal(got, want) {
		t.Fatalf("delivered seqs %v, want %v", got, want)
	}
}

// TestCancelPendingDeliveriesWalksTheQueues: the count returned is the
// number queued over all watchers, the engine forgets exactly those, the
// records go back to their pools empty, and there is nothing left for a
// second call.
func TestCancelPendingDeliveriesWalksTheQueues(t *testing.T) {
	eng, api := newTieAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})
	delivered := 0
	api.Watch(KindJob, func(Event) { delivered++ })
	api.Watch(KindJob, func(Event) { delivered++ })
	other := eng.After(time.Hour, func() {})
	for i := 0; i < 4; i++ {
		api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
	}
	recs := append(queued(api.watchers[0]), queued(api.watchers[1])...)
	if got := eng.Pending(); got != 9 {
		t.Fatalf("engine holds %d events, want 8 deliveries and the bystander", got)
	}
	if n := api.CancelPendingDeliveries(); n != 8 {
		t.Fatalf("cancelled %d deliveries, want 8", n)
	}
	if got := eng.Pending(); got != 1 || other.At() == 0 {
		t.Fatalf("engine holds %d events after the cancel, want only the bystander", got)
	}
	checkRecycled(t, "after cancel", recs)
	if n := api.CancelPendingDeliveries(); n != 0 {
		t.Fatalf("second cancel dropped %d deliveries", n)
	}
	other.Cancel()
	// The streams still work, and reuse the pooled records.
	api.Client().UpdateStatus(KindJob, "ns", "j", MutateFunc(bumpActive))
	if d := api.watchers[0].head; !slices.Contains(recs[:4], d) {
		t.Error("a delivery after the cancel did not come from the watcher's pool")
	}
	eng.Run()
	if delivered != 2 {
		t.Fatalf("%d deliveries after the cancel, want 2", delivered)
	}
}
