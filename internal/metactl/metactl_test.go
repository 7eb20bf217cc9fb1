package metactl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

const kindChild k8s.Kind = "TestChild"

// scriptedHooks returns fixed desired children and records calls.
type scriptedHooks struct {
	desired      func(parent k8s.Object) []*k8s.Custom
	finalized    bool
	syncCalls    int
	finalizeCnt  int
	syncErr      error
	finalizeErr  error
	lastChildren int
	// answer, when set, builds the /sync response from the whole request.
	answer func(SyncRequest) []*k8s.Custom
}

func (h *scriptedHooks) Sync(req SyncRequest) (SyncResponse, error) {
	h.syncCalls++
	h.lastChildren = len(req.Children)
	if h.syncErr != nil {
		return SyncResponse{}, h.syncErr
	}
	if h.answer != nil {
		return SyncResponse{Children: h.answer(req)}, nil
	}
	return SyncResponse{Children: h.desired(req.Parent)}, nil
}

func (h *scriptedHooks) Finalize(req SyncRequest) (FinalizeResponse, error) {
	h.finalizeCnt++
	return FinalizeResponse{Finalized: h.finalized}, h.finalizeErr
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Name = "test"
	cfg.ParentKind = k8s.KindJob
	cfg.ChildKind = kindChild
	cfg.Finalizer = "test/finalizer"
	cfg.Jitter = 0
	return cfg
}

func oneChild(name string, spec map[string]string) func(k8s.Object) []*k8s.Custom {
	return func(parent k8s.Object) []*k8s.Custom {
		return []*k8s.Custom{{
			Meta: k8s.Meta{Name: name},
			Spec: spec,
		}}
	}
}

func newEnv(t *testing.T, cfg Config, h Hooks) (*sim.Engine, *k8s.APIServer, *Decorator) {
	t.Helper()
	eng := sim.NewEngine(1)
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	d := NewDecorator(api.Client(), cfg, h)
	return eng, api, d
}

func submitJob(eng *sim.Engine, api *k8s.APIServer, name string, ann map[string]string) {
	api.Client().Create(&k8s.Job{Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: "ns", Name: name, Annotations: ann}}, nil)
	eng.RunFor(5 * time.Second)
}

func TestDecoratorCreatesDesiredChild(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("child-a", map[string]string{"vni": "9"})}
	eng, api, _ := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)

	children := api.List(kindChild, "ns")
	if len(children) != 1 {
		t.Fatalf("children = %d", len(children))
	}
	c := children[0].(*k8s.Custom)
	if c.Spec["vni"] != "9" {
		t.Errorf("spec = %v", c.Spec)
	}
	job, _ := api.Get(k8s.KindJob, "ns", "j1")
	if !job.GetMeta().HasFinalizer("test/finalizer") {
		t.Error("finalizer not attached")
	}
	if c.Meta.OwnerUID != job.GetMeta().UID {
		t.Error("child not owned by parent")
	}
}

func TestDecoratorSelectorFilters(t *testing.T) {
	cfg := testCfg()
	cfg.Selector = func(o k8s.Object) bool { return o.GetMeta().Annotations["vni"] != "" }
	h := &scriptedHooks{desired: oneChild("c", nil)}
	eng, api, _ := newEnv(t, cfg, h)
	submitJob(eng, api, "plain", nil)
	if h.syncCalls != 0 {
		t.Errorf("sync called for non-matching parent")
	}
	submitJob(eng, api, "annotated", map[string]string{"vni": "true"})
	if h.syncCalls == 0 {
		t.Error("sync not called for matching parent")
	}
	if job, _ := api.Get(k8s.KindJob, "ns", "plain"); job.GetMeta().HasFinalizer("test/finalizer") {
		t.Error("finalizer attached to non-matching parent")
	}
}

func TestDecoratorApplyUpdatesChangedChild(t *testing.T) {
	spec := map[string]string{"v": "1"}
	h := &scriptedHooks{desired: oneChild("c", spec)}
	eng, api, d := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	spec["v"] = "2" // mutate desired spec, then resync
	d.Resync()
	eng.RunFor(5 * time.Second)
	c := api.List(kindChild, "ns")[0].(*k8s.Custom)
	if c.Spec["v"] != "2" {
		t.Errorf("child spec not updated: %v", c.Spec)
	}
}

func TestDecoratorApplyDeletesUnlistedChild(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("keep", nil)}
	eng, api, d := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	// Switch desired set to a different child; old one must go.
	h.desired = oneChild("replacement", nil)
	d.Resync()
	eng.RunFor(5 * time.Second)
	children := api.List(kindChild, "ns")
	if len(children) != 1 || children[0].GetMeta().Name != "replacement" {
		t.Errorf("children = %+v", children)
	}
}

func TestDecoratorSyncIdempotent(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", map[string]string{"v": "1"})}
	eng, api, d := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	for i := 0; i < 3; i++ {
		d.Resync()
		eng.RunFor(5 * time.Second)
	}
	if n := len(api.List(kindChild, "ns")); n != 1 {
		t.Errorf("children after repeated sync = %d", n)
	}
	if h.lastChildren != 1 {
		t.Errorf("webhook observed %d children, want 1", h.lastChildren)
	}
}

func TestFinalizeBlocksUntilFinalized(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", nil), finalized: false}
	eng, api, _ := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	api.Client().Delete(k8s.KindJob, "ns", "j1", nil)
	eng.RunFor(3 * time.Second)
	if _, ok := api.Get(k8s.KindJob, "ns", "j1"); !ok {
		t.Fatal("parent deleted while finalize pending")
	}
	if h.finalizeCnt == 0 {
		t.Fatal("finalize never called")
	}
	h.finalized = true
	eng.RunFor(10 * time.Second)
	if _, ok := api.Get(k8s.KindJob, "ns", "j1"); ok {
		t.Error("parent survives after finalized")
	}
	if n := len(api.List(kindChild, "ns")); n != 0 {
		t.Errorf("children after finalize = %d", n)
	}
}

func TestSyncErrorLeavesChildrenUntouched(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", nil)}
	eng, api, d := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	h.syncErr = errors.New("endpoint down")
	d.Resync()
	eng.RunFor(5 * time.Second)
	if n := len(api.List(kindChild, "ns")); n != 1 {
		t.Errorf("children after failed sync = %d", n)
	}
}

// TestFinalizeErrorLeavesChildrenUntouched: a /finalize that fails says
// nothing about the desired children — whatever it stands for (the VNI row)
// may still be allocated — so they stay, the parent stays, and the hook is
// retried until it answers.
func TestFinalizeErrorLeavesChildrenUntouched(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", nil), finalized: true, finalizeErr: errors.New("db down")}
	eng, api, d := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	api.Client().Delete(k8s.KindJob, "ns", "j1", nil)
	eng.RunFor(3 * time.Second)
	if h.finalizeCnt < 2 {
		t.Fatalf("finalize called %d times in 3s, want retries", h.finalizeCnt)
	}
	if n := len(api.List(kindChild, "ns")); n != 1 {
		t.Errorf("children after failed finalize calls = %d, want 1", n)
	}
	if _, ok := api.Get(k8s.KindJob, "ns", "j1"); !ok {
		t.Error("parent deleted although finalize never succeeded")
	}
	h.finalizeErr = nil
	eng.RunFor(10 * time.Second)
	if _, ok := api.Get(k8s.KindJob, "ns", "j1"); ok {
		t.Error("parent survives after finalize succeeded")
	}
	if n := len(api.List(kindChild, "ns")) + d.InFlight(); n != 0 {
		t.Errorf("%d children or rounds left after finalize", n)
	}
}

// TestEchoedChildIsNeitherStampedNorWritten: the request's children are the
// committed objects. A hook that answers with them asks for no write — and
// gets no store into their Meta either, which the strayed child shows: it is
// the parent's by owner UID but lives in another namespace, so stamping it
// with the parent's would change a committed object. A hook that edits one
// is a writer after commit, and the recorder names it.
func TestEchoedChildIsNeitherStampedNorWritten(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", map[string]string{"v": "1"})}
	eng, api, d := newEnv(t, testCfg(), h)
	rec := api.Client().RecordCommits()
	submitJob(eng, api, "j1", nil)
	job, _ := api.Get(k8s.KindJob, "ns", "j1")
	api.Client().Create(&k8s.Custom{Meta: k8s.Meta{Kind: kindChild, Namespace: "elsewhere", Name: "strayed",
		OwnerUID: job.GetMeta().UID}}, nil)
	eng.RunFor(5 * time.Second)

	h.answer = func(req SyncRequest) []*k8s.Custom { return req.Children }
	writes := api.KindSeq(kindChild)
	d.Resync()
	eng.RunFor(5 * time.Second)
	if h.lastChildren != 2 {
		t.Fatalf("webhook observed %d children, want the child and the strayed one", h.lastChildren)
	}
	if got := api.KindSeq(kindChild); got != writes {
		t.Errorf("echoing the observed children wrote to the API (%d commits)", got-writes)
	}
	if err := rec.Verify(); err != nil {
		t.Errorf("echoing the observed children: %v", err)
	}

	h.answer = func(req SyncRequest) []*k8s.Custom {
		req.Children[0].Status = map[string]string{"seen": "true"}
		return req.Children
	}
	d.Resync()
	eng.RunFor(5 * time.Second)
	if err := rec.Verify(); err == nil {
		t.Error("a hook edited an observed child and the commit recorder did not notice")
	}
}

func TestReconcileCoalescesConcurrentEvents(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", nil)}
	eng, api, _ := newEnv(t, testCfg(), h)
	// Create triggers reconcile #1; the finalizer update triggers more
	// watch events which must coalesce rather than explode.
	submitJob(eng, api, "j1", nil)
	calls := h.syncCalls
	if calls == 0 {
		t.Fatal("no sync calls")
	}
	eng.RunFor(10 * time.Second)
	if h.syncCalls > calls+3 {
		t.Errorf("sync storm: %d calls", h.syncCalls)
	}
}

// TestDecoratorForgetsParentAndOwesSecondRound: a parent is tracked for the
// length of its round and no longer — not even while it still exists — and
// an event that arrives while the round is in flight buys exactly one more
// round behind it.
func TestDecoratorForgetsParentAndOwesSecondRound(t *testing.T) {
	h := &scriptedHooks{desired: oneChild("c", nil)}
	eng, api, d := newEnv(t, testCfg(), h)
	submitJob(eng, api, "j1", nil)
	if n := d.InFlight(); n != 0 {
		t.Fatalf("decorator tracks %d parents with no round in flight", n)
	}

	calls := h.syncCalls
	d.schedule("ns/j1") // a round starts: the webhook call is one latency away
	d.schedule("ns/j1") // the parent changes mid-round...
	d.schedule("ns/j1") // ...twice: still one more round owed, not two
	if n := d.InFlight(); n != 1 {
		t.Fatalf("decorator tracks %d parents mid-round, want 1", n)
	}
	eng.RunFor(5 * time.Second)
	if got := h.syncCalls - calls; got != 2 {
		t.Errorf("%d webhook calls for a round and the events during it, want 2", got)
	}

	api.Client().Delete(k8s.KindJob, "ns", "j1", nil)
	h.finalized = true
	eng.RunFor(10 * time.Second)
	if _, ok := api.Get(k8s.KindJob, "ns", "j1"); ok {
		t.Fatal("parent survives its deletion")
	}
	if n := d.InFlight(); n != 0 {
		t.Errorf("decorator still tracks %d parents after the only one was deleted", n)
	}
}

// TestRoundsHeldAfterDrain creates n parents at once, then deletes them at
// once, on a server without jitter: n rounds are in flight together for the
// finalizer attach and the child creates, and again for the finalize calls,
// child deletes and finalizer removals. A drained decorator then holds
// exactly n distinct rounds — fewer is a round leaked, more one recycled
// twice — and every parent that had no finalizer got the decorator's one
// shared list.
func TestRoundsHeldAfterDrain(t *testing.T) {
	const n = 5
	h := &scriptedHooks{finalized: true, desired: func(parent k8s.Object) []*k8s.Custom {
		return []*k8s.Custom{{Meta: k8s.Meta{Name: "c-" + parent.GetMeta().Name}}}
	}}
	eng := sim.NewEngine(1)
	api := k8s.NewAPIServer(eng, k8s.APILatency{Request: 6 * time.Millisecond, WatchDelivery: 25 * time.Millisecond})
	d := NewDecorator(api.Client(), testCfg(), h)
	for i := 0; i < n; i++ {
		api.Client().Create(&k8s.Job{Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: "ns", Name: fmt.Sprint("j", i)}}, nil)
	}
	eng.Run()
	if got := len(api.List(kindChild, "ns")); got != n {
		t.Fatalf("%d children for %d parents", got, n)
	}
	for _, obj := range api.List(k8s.KindJob, "ns") {
		if f := obj.GetMeta().Finalizers; len(f) != 1 || &f[0] != &d.finalizers[0] {
			t.Errorf("%s carries finalizers %v, not the decorator's shared list", obj.GetMeta().Name, f)
		}
	}
	for i := 0; i < n; i++ {
		api.Client().Delete(k8s.KindJob, "ns", fmt.Sprint("j", i), nil)
	}
	eng.Run()
	if left := len(api.List(k8s.KindJob, "ns")) + len(api.List(kindChild, "ns")) + d.InFlight(); left != 0 {
		t.Fatalf("%d parents, children or rounds left after the drain", left)
	}
	if !d.free.Idle() {
		t.Fatalf("the free list holds other than the %d rounds it made", d.free.Len())
	}
	rounds := make(map[*round]bool)
	for range d.free.Len() {
		r := d.free.Get()
		if rounds[r] {
			t.Fatal("a round is on the free list twice")
		}
		rounds[r] = true
	}
	if len(rounds) != n {
		t.Errorf("the free list holds %d rounds, want %d", len(rounds), n)
	}
}
