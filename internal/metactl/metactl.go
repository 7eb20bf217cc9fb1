// Package metactl reimplements the slice of Metacontroller the paper's VNI
// Controller is built on: the DecoratorController, which watches existing
// resources matching a selector and "decorates" them with child objects.
// The desired-children logic lives behind webhooks with apply semantics —
// the controller sends the observed parent and its current children, the
// webhook answers with the desired children, and the controller reconciles
// the cluster toward that answer (paper §III-C1/C2).
//
// Two hooks exist, mirroring Metacontroller's contract:
//
//	/sync     — called for live parents (create/update); response carries
//	            the desired child list. Must be idempotent.
//	/finalize — called for deleting parents while the controller's
//	            finalizer is attached; response says whether finalization
//	            is complete. Children are deleted and the finalizer removed
//	            only once the hook reports Finalized.
package metactl

import (
	"maps"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// SyncRequest is the webhook input.
type SyncRequest struct {
	Parent k8s.Object
	// Children are the controller-owned children currently attached to
	// the parent: the committed objects themselves, in a slice the
	// controller reuses. Both are read-only and valid until the hook
	// returns. A response that wants a child left as it is lists that very
	// pointer (or re-slices Children): the echo, which the controller
	// neither stamps nor writes.
	Children []*k8s.Custom
}

// SyncResponse is the webhook output for /sync.
type SyncResponse struct {
	// Children is the desired child set (apply semantics: missing ones
	// are created, changed ones updated, unlisted ones deleted).
	Children []*k8s.Custom
}

// FinalizeResponse is the webhook output for /finalize.
type FinalizeResponse struct {
	// Finalized reports whether cleanup is complete; until then the
	// parent is held by the finalizer and the hook is retried.
	Finalized bool
	// Children is the desired child set while finalization is pending
	// (usually empty).
	Children []*k8s.Custom
}

// Hooks is the webhook implementation (the paper's VNI Endpoint).
type Hooks interface {
	Sync(req SyncRequest) (SyncResponse, error)
	Finalize(req SyncRequest) (FinalizeResponse, error)
}

// Config describes one decorator controller instance.
type Config struct {
	Name string
	// ParentKind is the watched resource type.
	ParentKind k8s.Kind
	// Selector filters parents; nil selects all. It is applied at watch
	// registration, so non-matching parent events never reach the
	// controller.
	Selector func(k8s.Object) bool
	// ChildKind is the kind of managed children.
	ChildKind k8s.Kind
	// Finalizer, when non-empty, is attached to matching parents so the
	// Finalize hook gates their deletion.
	Finalizer string
	// WebhookLatency models the HTTP round trip to the webhook pod.
	WebhookLatency sim.Duration
	// FinalizeRetry is the backoff between finalize attempts that report
	// Finalized=false.
	FinalizeRetry sim.Duration
	// Jitter fraction on latencies.
	Jitter float64
}

// DefaultConfig fills latency defaults.
func DefaultConfig() Config {
	return Config{
		WebhookLatency: 12 * time.Millisecond,
		FinalizeRetry:  500 * time.Millisecond,
		Jitter:         0.35,
	}
}

// Decorator is a running decorator controller.
type Decorator struct {
	cli      *k8s.Client
	cfg      Config
	hooks    Hooks
	parents  k8s.Lister
	children k8s.Lister // indexed by owner UID
	// rounds holds the parents with a reconcile round in flight, one round
	// per parent at a time. A parent is forgotten when its round ends, so
	// the map is empty whenever the engine is idle.
	rounds map[string]*round
	free   sim.FreeList[round]
	// objs and kids are the scratch a round reads the parent's children
	// into, as the owner index lists them and as the webhook request carries
	// them; a round is done with both before it returns to the engine.
	objs []k8s.Object
	kids []*k8s.Custom
}

// round is one parent's round in flight and the argument of the event that
// starts it after the webhook latency; done recycles it.
type round struct {
	d     *Decorator
	key   string
	again bool // the parent changed during the round and is owed another
}

// NewDecorator creates and starts the controller.
func NewDecorator(cli *k8s.Client, cfg Config, hooks Hooks) *Decorator {
	d := &Decorator{cli: cli, cfg: cfg, hooks: hooks, rounds: make(map[string]*round)}
	d.parents = cli.Lister(cfg.ParentKind)
	childInformer := cli.Informer(cfg.ChildKind)
	childInformer.AddIndex(k8s.IndexOwner, k8s.OwnerIndex)
	d.children = childInformer.Lister()
	cli.Watch(cfg.ParentKind, k8s.WatchOptions{Selector: cfg.Selector}, func(ev k8s.Event) {
		if ev.Type == k8s.EventDeleted {
			return
		}
		d.schedule(ev.Object.GetMeta().Key())
	})
	return d
}

func (d *Decorator) schedule(key string) {
	if r := d.rounds[key]; r != nil {
		r.again = true
		return
	}
	r := d.free.Get()
	r.d, r.key = d, key
	d.rounds[key] = r
	eng := d.cli.Engine()
	eng.AfterCall(eng.Jitter(d.cfg.WebhookLatency, d.cfg.Jitter), reconcileCall, r)
}

func reconcileCall(arg any) {
	r := arg.(*round)
	r.d.reconcile(r.key)
}

// done ends the parent's round and starts the next if the parent changed
// during it.
func (d *Decorator) done(key string) {
	r := d.rounds[key]
	delete(d.rounds, key)
	again := r.again
	*r = round{}
	d.free.Put(r)
	if again {
		d.schedule(key)
	}
}

// reconcile drives one parent toward the webhook's desired state; every
// path through it ends in exactly one done(key).
func (d *Decorator) reconcile(key string) {
	ns, name := k8s.SplitKey(key)
	parent, ok := d.cli.Get(d.cfg.ParentKind, ns, name)
	if !ok {
		d.done(key)
		return
	}
	meta := parent.GetMeta()
	if meta.Deleting {
		d.finalize(key, parent)
		return
	}
	// Live parent: ensure finalizer, call sync, apply children. The
	// finalizer is attached with an optimistic-concurrency retry so a
	// concurrent status writer cannot make the attach silently vanish.
	if d.cfg.Finalizer == "" || meta.HasFinalizer(d.cfg.Finalizer) {
		d.sync(key, parent)
		return
	}
	d.cli.Patch(d.cfg.ParentKind, ns, name, func(cur k8s.Object) bool {
		m := cur.GetMeta()
		if m.HasFinalizer(d.cfg.Finalizer) {
			return false
		}
		m.AddFinalizer(d.cfg.Finalizer)
		return true
	}).Done(func(error) { d.sync(key, parent) })
}

// sync calls the webhook for a live parent and applies its answer.
func (d *Decorator) sync(key string, parent k8s.Object) {
	observed := d.observe(parent.GetMeta())
	resp, err := d.hooks.Sync(SyncRequest{Parent: parent, Children: observed})
	if err != nil {
		// Sync errors are retried on the next parent event or via
		// explicit Resync; children are left untouched.
		d.done(key)
		return
	}
	d.applyChildren(key, parent.GetMeta(), observed, resp.Children, nil)
}

// finalize calls the finalize hook of a deleting parent that still carries
// the controller's finalizer.
func (d *Decorator) finalize(key string, parent k8s.Object) {
	meta := parent.GetMeta()
	if d.cfg.Finalizer == "" || !meta.HasFinalizer(d.cfg.Finalizer) {
		d.done(key)
		return
	}
	observed := d.observe(meta)
	resp, err := d.hooks.Finalize(SyncRequest{Parent: parent, Children: observed})
	if err != nil {
		// As in sync, an error says nothing about the desired children:
		// they are left untouched and the hook is tried again.
		d.retryFinalize(key)
		return
	}
	if !resp.Finalized {
		d.applyChildren(key, meta, observed, resp.Children, func() { d.retryFinalize(key) })
		return
	}
	// Finalized: remove all children, then the finalizer. The removal
	// rides the retry layer: dropping it to an apiserver outage would
	// wedge the parent's deletion forever.
	d.applyChildren(key, meta, observed, nil, func() {
		d.cli.RemoveFinalizer(d.cfg.ParentKind, meta.Namespace, meta.Name, d.cfg.Finalizer).
			Done(func(error) { d.done(key) })
	})
}

// retryFinalize ends the round and queues the next FinalizeRetry later.
func (d *Decorator) retryFinalize(key string) {
	eng := d.cli.Engine()
	eng.After(eng.Jitter(d.cfg.FinalizeRetry, d.cfg.Jitter), func() { d.schedule(key) })
	d.done(key)
}

// observe reads the parent's controller-owned children through the owner
// index, O(children of this parent), into the round's scratch. They are
// committed objects: read-only.
func (d *Decorator) observe(parent *k8s.Meta) []*k8s.Custom {
	d.objs = d.children.AppendByIndex(d.objs[:0], k8s.IndexOwner, k8s.IndexKey{Name: string(parent.UID)})
	d.kids = d.kids[:0]
	for _, obj := range d.objs {
		if c, ok := obj.(*k8s.Custom); ok {
			d.kids = append(d.kids, c)
		}
	}
	return d.kids
}

// applyChildren reconciles the child set the round observed toward desired,
// then runs then — nil: end the round — once every write it issued has
// completed: at once when there is nothing to write, the usual outcome of a
// re-sync, which then allocates nothing. Both sets are a handful, so they
// are matched by scanning. A desired child that is the observed one, by
// pointer, is the webhook's echo: committed, hence not stamped, and equal to
// itself, hence not written.
func (d *Decorator) applyChildren(key string, parent *k8s.Meta, observed, desired []*k8s.Custom, then func()) {
	// Count the writes before issuing the first: a Response may complete
	// synchronously, and then must wait for the last.
	n := 0
	for _, w := range desired {
		cur := child(observed, w.Meta.Name)
		if cur == w {
			continue
		}
		w.Meta.Kind = d.cfg.ChildKind
		w.Meta.Namespace = parent.Namespace
		w.Meta.OwnerUID = parent.UID
		if cur == nil || !maps.Equal(cur.Spec, w.Spec) {
			n++
		}
	}
	for _, c := range observed {
		if !wants(desired, c.Meta.Name) {
			n++
		}
	}
	if n == 0 {
		d.applied(key, then)
		return
	}
	writes := n
	finish := func(error) {
		if writes--; writes == 0 {
			d.applied(key, then)
		}
	}
	// Child writes ride the retry layer: a VNI child create dropped to a
	// degraded or unavailable apiserver would leave the parent's
	// pod-creation gate closed forever (nothing re-triggers the sync).
	for _, w := range desired {
		switch cur := child(observed, w.Meta.Name); {
		case cur == nil:
			d.cli.Create(w).Done(finish)
		case !maps.Equal(cur.Spec, w.Spec):
			d.cli.Update(w).Done(finish)
		}
	}
	for _, c := range observed {
		if !wants(desired, c.Meta.Name) {
			d.cli.Delete(d.cfg.ChildKind, c.Meta.Namespace, c.Meta.Name).Done(finish)
		}
	}
}

func (d *Decorator) applied(key string, then func()) {
	if then == nil {
		d.done(key)
	} else {
		then()
	}
}

// child returns the observed child called name, or nil.
func child(observed []*k8s.Custom, name string) *k8s.Custom {
	for _, c := range observed {
		if c.Meta.Name == name {
			return c
		}
	}
	return nil
}

// wants reports whether desired lists a child called name.
func wants(desired []*k8s.Custom, name string) bool {
	for _, w := range desired {
		if w.Meta.Name == name {
			return true
		}
	}
	return false
}

// InFlight reports how many parents have a reconcile round in flight: zero
// whenever the engine is idle.
func (d *Decorator) InFlight() int { return len(d.rounds) }

// Resync re-queues every matching parent (Metacontroller's resyncPeriod)
// from the cached parent lister.
func (d *Decorator) Resync() {
	for _, obj := range d.parents.List("") {
		if d.cfg.Selector != nil && !d.cfg.Selector(obj) {
			continue
		}
		d.schedule(obj.GetMeta().Key())
	}
}
