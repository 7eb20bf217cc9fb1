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
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// SyncRequest is the webhook input.
type SyncRequest struct {
	Parent k8s.Object
	// Children are the controller-owned children currently attached to
	// the parent.
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
	// inFlight dedups concurrent reconciles per parent key.
	inFlight map[string]bool
	// pending marks parents that changed while a reconcile was running.
	pending map[string]bool
}

// NewDecorator creates and starts the controller.
func NewDecorator(cli *k8s.Client, cfg Config, hooks Hooks) *Decorator {
	d := &Decorator{cli: cli, cfg: cfg, hooks: hooks,
		inFlight: make(map[string]bool), pending: make(map[string]bool)}
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
	if d.inFlight[key] {
		d.pending[key] = true
		return
	}
	d.inFlight[key] = true
	eng := d.cli.Engine()
	eng.After(eng.Jitter(d.cfg.WebhookLatency, d.cfg.Jitter), func() {
		d.reconcile(key, func() {
			d.inFlight[key] = false
			if d.pending[key] {
				d.pending[key] = false
				d.schedule(key)
			}
		})
	})
}

// reconcile drives one parent toward the webhook's desired state.
func (d *Decorator) reconcile(key string, done func()) {
	ns, name := splitKey(key)
	obj, ok := d.cli.Get(d.cfg.ParentKind, ns, name)
	if !ok {
		done()
		return
	}
	meta := obj.GetMeta()
	req := SyncRequest{Parent: obj, Children: d.childrenOf(meta)}

	if meta.Deleting {
		if d.cfg.Finalizer == "" || !meta.HasFinalizer(d.cfg.Finalizer) {
			done()
			return
		}
		resp, err := d.hooks.Finalize(req)
		if err != nil || !resp.Finalized {
			d.applyChildren(meta, resp.Children, func() {
				eng := d.cli.Engine()
				eng.After(eng.Jitter(d.cfg.FinalizeRetry, d.cfg.Jitter), func() { d.schedule(key) })
				done()
			})
			return
		}
		// Finalized: remove all children, then the finalizer. The removal
		// rides the retry layer: dropping it to an apiserver outage would
		// wedge the parent's deletion forever.
		d.applyChildren(meta, nil, func() {
			d.cli.RemoveFinalizer(d.cfg.ParentKind, ns, name, d.cfg.Finalizer).Done(func(error) { done() })
		})
		return
	}

	// Live parent: ensure finalizer, call sync, apply children. The
	// finalizer is attached with an optimistic-concurrency retry so a
	// concurrent status writer cannot make the attach silently vanish.
	ensureFinalizer := func(next func()) {
		if d.cfg.Finalizer == "" || meta.HasFinalizer(d.cfg.Finalizer) {
			next()
			return
		}
		d.cli.Patch(d.cfg.ParentKind, ns, name, func(cur k8s.Object) bool {
			m := cur.GetMeta()
			if m.HasFinalizer(d.cfg.Finalizer) {
				return false
			}
			m.AddFinalizer(d.cfg.Finalizer)
			return true
		}).Done(func(error) { next() })
	}
	ensureFinalizer(func() {
		resp, err := d.hooks.Sync(req)
		if err != nil {
			// Sync errors are retried on the next parent event or via
			// explicit Resync; children are left untouched.
			done()
			return
		}
		d.applyChildren(meta, resp.Children, done)
	})
}

// cachedChildren lists controller-owned children of the parent through the
// owner index: O(children of this parent), not O(all children in the
// namespace). The results are committed objects: read-only.
func (d *Decorator) cachedChildren(parent *k8s.Meta) []*k8s.Custom {
	var out []*k8s.Custom
	for _, obj := range d.children.ByIndex(k8s.IndexOwner, string(parent.UID)) {
		if c, ok := obj.(*k8s.Custom); ok {
			out = append(out, c)
		}
	}
	return out
}

// childrenOf returns Clones of the parent's children for a webhook
// request: responses may echo them back as desired state, whose Meta
// applyChildren then stamps. The spec and status maps stay shared.
func (d *Decorator) childrenOf(parent *k8s.Meta) []*k8s.Custom {
	out := d.cachedChildren(parent)
	for i, c := range out {
		out[i] = c.Clone().(*k8s.Custom)
	}
	return out
}

// applyChildren reconciles the actual child set toward desired. It only
// reads the current children (name, namespace, spec), so it takes them from
// the cache uncopied.
func (d *Decorator) applyChildren(parent *k8s.Meta, desired []*k8s.Custom, done func()) {
	current := d.cachedChildren(parent)
	curByName := make(map[string]*k8s.Custom, len(current))
	for _, c := range current {
		curByName[c.Meta.Name] = c
	}
	wantByName := make(map[string]*k8s.Custom, len(desired))
	remaining := 0
	finish := func(error) {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	var ops []func()
	for _, w := range desired {
		w := w
		w.Meta.Kind = d.cfg.ChildKind
		w.Meta.Namespace = parent.Namespace
		w.Meta.OwnerUID = parent.UID
		wantByName[w.Meta.Name] = w
		// Child writes ride the retry layer: a VNI child create dropped to
		// a degraded or unavailable apiserver would leave the parent's
		// pod-creation gate closed forever (nothing re-triggers the sync).
		if cur, exists := curByName[w.Meta.Name]; exists {
			if !specsEqual(cur.Spec, w.Spec) {
				ops = append(ops, func() { d.cli.Update(w).Done(finish) })
			}
			continue
		}
		ops = append(ops, func() { d.cli.Create(w).Done(finish) })
	}
	for _, c := range current {
		c := c
		if _, keep := wantByName[c.Meta.Name]; !keep {
			ops = append(ops, func() {
				d.cli.Delete(d.cfg.ChildKind, c.Meta.Namespace, c.Meta.Name).Done(finish)
			})
		}
	}
	if len(ops) == 0 {
		done()
		return
	}
	remaining = len(ops)
	for _, op := range ops {
		op()
	}
}

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

func specsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func splitKey(key string) (ns, name string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}
