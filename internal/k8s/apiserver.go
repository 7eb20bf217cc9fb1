package k8s

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Errors returned by the API server.
var (
	ErrNotFound      = errors.New("k8s: object not found")
	ErrAlreadyExists = errors.New("k8s: object already exists")
	ErrTerminating   = errors.New("k8s: object is terminating")
	// ErrConflict is returned by Update when the caller's ResourceVersion
	// is non-zero and no longer matches the stored object: another writer
	// committed in between. Re-read and retry (Client.Patch).
	ErrConflict = errors.New("k8s: resource version conflict")
	// ErrPending is returned by Response.Err while the request is still in
	// flight in virtual time.
	ErrPending = errors.New("k8s: request still in flight")
	// ErrUnavailable is returned by writes while the apiserver is in a full
	// outage, and with the configured per-request probability while it is
	// degraded. Transient: the client's attempt loop backs off and reissues.
	ErrUnavailable = errors.New("k8s: apiserver unavailable")
	// ErrTimeout is returned when a request's client-side deadline fires
	// before the server commits; the pending commit is cancelled, so a timed
	// out request is dropped, never half-applied. Transient.
	ErrTimeout = errors.New("k8s: request deadline exceeded")
	// ErrRetriesExhausted is returned by every client write when the
	// conflict cap or the transient-failure retry budget is spent. It wraps
	// the final underlying error, so errors.Is works on both.
	ErrRetriesExhausted = errors.New("k8s: retries exhausted")
)

// Response is the handle returned by every API write. The request completes
// after the API round-trip latency in virtual time; callbacks registered
// with Done run at completion (immediately when already complete).
type Response struct {
	err       error
	completed bool
	// cb is the first callback registered — nearly every request has exactly
	// one — and cbs the ones after it.
	cb  func(error)
	cbs []func(error)
}

func (r *Response) complete(err error) {
	if r.completed {
		return
	}
	r.completed = true
	r.err = err
	cb, cbs := r.cb, r.cbs
	r.cb, r.cbs = nil, nil
	if cb != nil {
		cb(err)
	}
	for _, cb := range cbs {
		cb(err)
	}
}

// Done registers fn to run when the request completes; it returns r so a
// call site can both register and keep the handle. If the request already
// completed, fn runs synchronously.
func (r *Response) Done(fn func(error)) *Response {
	switch {
	case r.completed:
		fn(r.err)
	case r.cb == nil:
		r.cb = fn
	default:
		r.cbs = append(r.cbs, fn)
	}
	return r
}

// Completed reports whether the request has finished.
func (r *Response) Completed() bool { return r.completed }

// Err returns the request outcome, or ErrPending while still in flight.
func (r *Response) Err() error {
	if !r.completed {
		return ErrPending
	}
	return r.err
}

// APILatency models the control-plane processing costs that dominate the
// paper's admission-delay baseline.
type APILatency struct {
	// Request is per-API-call processing (admission chain, etcd write).
	Request sim.Duration
	// WatchDelivery is the lag between a commit and watcher notification.
	WatchDelivery sim.Duration
	// Jitter is the uniform fraction applied to both.
	Jitter float64
}

// DefaultAPILatency is calibrated against a small k3s deployment.
func DefaultAPILatency() APILatency {
	return APILatency{
		Request:       6 * time.Millisecond,
		WatchDelivery: 25 * time.Millisecond,
		Jitter:        0.35,
	}
}

// Availability is the apiserver's health state under the fault model.
type Availability int

// Availability states.
const (
	// AvailUp is normal operation (the only state until a fault event arms
	// the layer).
	AvailUp Availability = iota
	// AvailDegraded elevates request latency by a factor and fails each
	// write independently with a configured probability.
	AvailDegraded
	// AvailDown fails every write with ErrUnavailable. Reads and status
	// queries keep working (served from the HA watch cache); watch
	// deliveries for events committed before the outage still drain.
	AvailDown
)

// String names the availability state.
func (a Availability) String() string {
	switch a {
	case AvailDegraded:
		return "degraded"
	case AvailDown:
		return "down"
	default:
		return "up"
	}
}

// apiFaults holds the fault-layer state. It is nil until the first fault
// call arms the layer, so fault-free runs take no extra RNG draws and
// schedule no extra events — their timelines stay byte-identical.
type apiFaults struct {
	state     Availability
	latFactor float64
	errProb   float64
	// firstMissed records, per kind, the commit time of the oldest event a
	// broken watch dropped — the zero point for staleness measurement,
	// cleared when the informer relists.
	firstMissed map[Kind]sim.Time
	// loseWrites counts writes per kind to silently lose (commit without a
	// watch event or sequence bump) — the debug hook the fuzzer's
	// eventual-convergence invariant self-tests against.
	loseWrites map[Kind]int
}

type watcher struct {
	api     *APIServer
	kind    Kind
	handler func(Event)
	// next is the earliest time the next event may be delivered to this
	// watcher. It makes delivery FIFO per watcher: events for one watcher
	// arrive in commit order even though each draws independent jitter.
	next sim.Time
	// broken marks a silently severed stream: deliveries are dropped (not
	// queued) until the watcher re-subscribes (informers: via relist).
	broken bool
	// head and tail are the queue of posted, undelivered events, in commit
	// order — which, next being monotone, is the order their timers fire in.
	head, tail *delivery
	free       sim.FreeList[delivery]
}

// delivery is one event on its way to one watcher: the argument of its own
// engine event and a link of the watcher's queue, recycled through the
// watcher's free list once it fired or was cancelled.
type delivery struct {
	w     *watcher
	ev    Event
	timer sim.Event
	next  *delivery
}

// post queues ev for delivery at time at. The engine event takes its slot
// and sequence number here, when the commit happens, so ties between
// watchers at one instant resolve in commit order.
func (w *watcher) post(at sim.Time, ev Event) {
	d := w.free.Get()
	d.w, d.ev = w, ev
	d.timer = w.api.eng.AtCall(at, deliverCall, d)
	if w.tail == nil {
		w.head = d
	} else {
		w.tail.next = d
	}
	w.tail = d
}

// pop unlinks the queue head and recycles it, holding no object.
func (w *watcher) pop() {
	d := w.head
	if w.head = d.next; w.head == nil {
		w.tail = nil
	}
	*d = delivery{}
	w.free.Put(d)
}

// deliverCall is the body of a delivery's engine event. The record is off
// the queue and back on the free list before the handler runs: a handler
// that commits posts behind whatever is still queued.
func deliverCall(arg any) {
	d := arg.(*delivery)
	w, ev := d.w, d.ev
	if w.head != d {
		panic(fmt.Sprintf("k8s: %s watch delivery seq %d fired out of queue order", w.kind, ev.Seq))
	}
	w.pop()
	w.handler(ev)
}

// APIServer is the cluster state store. All mutation goes through it; all
// controllers react to its watch events. It is single-threaded on the
// simulation engine.
//
// This is the low-level surface. Controllers and tools should consume the
// typed facade returned by Client(), which adds informer-backed listers,
// indexes and filtered watch registration on top.
type APIServer struct {
	eng      *sim.Engine
	lat      APILatency
	stores   map[Kind]map[string]Object
	watchers []*watcher
	nextUID  int
	// rev is the global commit revision; every write stamps the stored
	// object's Meta.ResourceVersion with a fresh value.
	rev int64
	// cli is the lazily created shared client (one informer cache set per
	// API server, like a shared informer factory).
	cli *Client
	// kindSeq is the per-kind commit sequence: bumped once per committed
	// write, deletes included — dense per kind (ResourceVersion is global),
	// which is what makes watch-gap detection cheap.
	kindSeq map[Kind]uint64
	// faults is nil until the first fault call arms the layer.
	faults *apiFaults
	// owned indexes every stored object that names an owner under that
	// owner's UID, so the garbage collector reads one bucket instead of
	// scanning every store. A bucket is a slice: an owner has a handful of
	// children. Written only by own and unown.
	owned map[UID][]ownedRef
}

// ownedRef addresses one stored object in the owner index.
type ownedRef struct {
	kind     Kind
	ns, name string
}

// NewAPIServer creates an empty API server.
func NewAPIServer(eng *sim.Engine, lat APILatency) *APIServer {
	return &APIServer{
		eng:     eng,
		lat:     lat,
		stores:  make(map[Kind]map[string]Object),
		kindSeq: make(map[Kind]uint64),
		owned:   make(map[UID][]ownedRef),
	}
}

// Engine exposes the simulation engine to controllers.
func (a *APIServer) Engine() *sim.Engine { return a.eng }

// Client returns the shared typed client for this API server. All callers
// get the same instance, so informer caches and indexes are shared.
func (a *APIServer) Client() *Client {
	if a.cli == nil {
		a.cli = newClient(a)
	}
	return a.cli
}

func (a *APIServer) store(kind Kind) map[string]Object {
	s, ok := a.stores[kind]
	if !ok {
		s = make(map[string]Object)
		a.stores[kind] = s
	}
	return s
}

// own files a newly stored object, by its metadata, under the owner it
// names, if any; unown takes it out again. A new version of a stored object
// stays filed as it is unless it names another owner (replace).
func (a *APIServer) own(m *Meta) {
	if m.OwnerUID != "" {
		a.owned[m.OwnerUID] = append(a.owned[m.OwnerUID], ownedRef{m.Kind, m.Namespace, m.Name})
	}
}

func (a *APIServer) unown(m *Meta) {
	b := a.owned[m.OwnerUID]
	i := slices.Index(b, ownedRef{m.Kind, m.Namespace, m.Name})
	switch {
	case i < 0:
	case len(b) == 1:
		delete(a.owned, m.OwnerUID)
	default: // order within a bucket carries no meaning: collectOrphans sorts
		b[i] = b[len(b)-1]
		a.owned[m.OwnerUID] = b[:len(b)-1]
	}
}

func (a *APIServer) reqDelay() sim.Duration {
	d := a.lat.Request
	if a.faults != nil && a.faults.state == AvailDegraded && a.faults.latFactor > 1 {
		d = sim.Duration(float64(d) * a.faults.latFactor)
	}
	return a.eng.Jitter(d, a.lat.Jitter)
}

// armFaults lazily creates the fault-layer state. Once armed it stays
// armed: client deadlines apply from here on, even after recovery.
func (a *APIServer) armFaults() *apiFaults {
	if a.faults == nil {
		a.faults = &apiFaults{
			latFactor:   1,
			firstMissed: make(map[Kind]sim.Time),
			loseWrites:  make(map[Kind]int),
		}
	}
	return a.faults
}

// FailAPIServer begins a full outage: every write fails with
// ErrUnavailable until RecoverAPIServer. Reads and queued watch deliveries
// keep working (the watch cache is modelled as highly available).
func (a *APIServer) FailAPIServer() {
	f := a.armFaults()
	f.state, f.latFactor, f.errProb = AvailDown, 1, 0
}

// DegradeAPIServer enters degraded mode: request latency is multiplied by
// latFactor (clamped to ≥ 1) and each write independently fails with
// probability errProb (clamped to [0, 1]).
func (a *APIServer) DegradeAPIServer(latFactor, errProb float64) {
	if latFactor < 1 {
		latFactor = 1
	}
	errProb = max(0, min(1, errProb))
	f := a.armFaults()
	f.state, f.latFactor, f.errProb = AvailDegraded, latFactor, errProb
}

// RecoverAPIServer returns the apiserver to normal operation. The fault
// layer stays armed (deadlines remain in force) but no further requests
// fail or slow down.
func (a *APIServer) RecoverAPIServer() {
	f := a.armFaults()
	f.state, f.latFactor, f.errProb = AvailUp, 1, 0
}

// Availability reports the current health state.
func (a *APIServer) Availability() Availability {
	if a.faults == nil {
		return AvailUp
	}
	return a.faults.state
}

// BreakWatch silently severs every current watch stream on kind: the
// watchers stay registered but their deliveries are dropped (not queued)
// until the stream is repaired — for informers, by the automatic
// relist-and-replay in the client's fault-recovery prober. Returns the
// number of streams broken.
func (a *APIServer) BreakWatch(kind Kind) int {
	a.armFaults()
	n := 0
	for _, w := range a.watchers {
		if w.kind == kind && !w.broken {
			w.broken = true
			n++
		}
	}
	return n
}

// SetDebugLoseWrite arranges for the next n writes on kind to commit
// without a watch notification or sequence bump — a true lost write,
// invisible to gap detection. Test/fuzz hook only: the eventual-convergence
// invariant self-tests that it would catch such a bug.
func (a *APIServer) SetDebugLoseWrite(kind Kind, n int) {
	a.armFaults().loseWrites[kind] = n
}

// admitWrite decides whether a write that finished its round trip commits.
// Down: every write fails. Degraded: each write independently fails with
// errProb, drawn from the engine RNG only in degraded mode so fault-free
// timelines draw nothing extra.
func (a *APIServer) admitWrite() error {
	if a.faults == nil {
		return nil
	}
	switch a.faults.state {
	case AvailDown:
		return ErrUnavailable
	case AvailDegraded:
		if a.faults.errProb > 0 && a.eng.Rand().Float64() < a.faults.errProb {
			return ErrUnavailable
		}
	}
	return nil
}

// KindSeq returns the per-kind commit sequence number.
func (a *APIServer) KindSeq(kind Kind) uint64 { return a.kindSeq[kind] }

// resumeWatch repairs a severed stream; deliveries resume with the next
// commit. The informer relist path calls this before snapshotting.
func (a *APIServer) resumeWatch(w *watcher) { w.broken = false }

// takeFirstMissed returns and clears the commit time of the oldest event a
// broken watch on kind dropped, if any.
func (a *APIServer) takeFirstMissed(kind Kind) (sim.Time, bool) {
	if a.faults == nil {
		return 0, false
	}
	t, ok := a.faults.firstMissed[kind]
	if ok {
		delete(a.faults.firstMissed, kind)
	}
	return t, ok
}

func (a *APIServer) notify(t EventType, obj Object) {
	kind := obj.GetMeta().Kind
	if a.faults != nil && a.faults.loseWrites[kind] > 0 {
		// Debug lost write: the commit stands but the watch timeline never
		// hears of it — no sequence bump, no deliveries.
		a.faults.loseWrites[kind]--
		return
	}
	a.kindSeq[kind]++
	seq := a.kindSeq[kind]
	for _, w := range a.watchers {
		if w.kind != kind {
			continue
		}
		if w.broken {
			if _, ok := a.faults.firstMissed[kind]; !ok {
				a.faults.firstMissed[kind] = a.eng.Now()
			}
			continue
		}
		at := a.eng.Now().Add(a.eng.Jitter(a.lat.WatchDelivery, a.lat.Jitter))
		if at < w.next {
			at = w.next
		}
		w.next = at
		w.post(at, Event{Type: t, Object: obj, Seq: seq})
	}
}

// CancelPendingDeliveries cancels every queued watch delivery timer and
// returns how many were dropped. End-of-run teardown only: queued
// deliveries otherwise hold RunUntilDone open after the last object is
// deleted (the control-plane mirror of the kubelet exit-timer fix).
func (a *APIServer) CancelPendingDeliveries() int {
	n := 0
	for _, w := range a.watchers {
		for w.head != nil {
			w.head.timer.Cancel()
			w.pop()
			n++
		}
	}
	return n
}

// Watch registers handler for all events on kind. Handlers run in virtual
// time, after the watch-delivery latency; one watcher sees events in commit
// order. This is the raw per-kind broadcast — controllers should prefer
// Client.Watch, which shares one upstream watcher per kind and supports
// namespace/selector filtering.
func (a *APIServer) Watch(kind Kind, handler func(Event)) {
	a.watch(kind, handler)
}

// watch is Watch returning the registration handle, so the informer can
// repair its own stream after a break.
func (a *APIServer) watch(kind Kind, handler func(Event)) *watcher {
	w := &watcher{api: a, kind: kind, handler: handler}
	a.watchers = append(a.watchers, w)
	return w
}

// Get returns the stored object, synchronously (a live quorum read; for
// cached, index-capable reads use a Lister). Read-only, like every read.
func (a *APIServer) Get(kind Kind, namespace, name string) (Object, bool) {
	obj, ok := a.store(kind)[namespace+"/"+name]
	return obj, ok
}

// List returns all stored objects of kind, in key order. Empty namespace
// lists across namespaces. This is the O(all-objects) scan; hot paths
// should read through an informer-backed Lister instead.
func (a *APIServer) List(kind Kind, namespace string) []Object {
	s := a.store(kind)
	keys := make([]string, 0, len(s))
	for k, obj := range s {
		if namespace != "" && obj.GetMeta().Namespace != namespace {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Object, 0, len(keys))
	for _, k := range keys {
		out = append(out, s[k])
	}
	return out
}

// submit queues r's commit one request delay out: the single engine event
// and the single RNG draw a write costs on a healthy server.
func (a *APIServer) submit(r *request) {
	r.pending = a.eng.AfterCall(a.reqDelay(), commitCall, r)
}

// commitCall is submit's event body; arg is the *request.
func commitCall(arg any) {
	r := arg.(*request)
	r.settle(r.c.api.commit(r))
}

// commit applies one client write to the store: the availability model
// admits or fails it, then the verb's commit function runs. A failed write
// leaves the store untouched.
func (a *APIServer) commit(r *request) error {
	if err := a.admitWrite(); err != nil {
		return err
	}
	switch r.verb {
	case verbCreate:
		return a.commitCreate(r.obj)
	case verbUpdate, verbPatch:
		return a.commitUpdate(r.obj)
	case verbDelete:
		return a.commitDelete(r.kind, r.ns, r.name)
	case verbRemoveFinalizer:
		return a.commitRemoveFinalizer(r.kind, r.ns, r.name, r.fin)
	default:
		return a.commitStatus(r.kind, r.ns, r.name, r.fn)
	}
}

// newUID mints "uid-" and the next serial number, zero-padded to six digits
// (what fmt's "uid-%06d" prints), as its one allocation.
func (a *APIServer) newUID() UID {
	a.nextUID++
	var digits, buf [24]byte
	d := strconv.AppendInt(digits[:0], int64(a.nextUID), 10)
	b := append(buf[:0], "uid-000000"[:max(4, 10-len(d))]...)
	return UID(append(b, d...))
}

func notFound(kind Kind, namespace, name string) error {
	return fmt.Errorf("%w: %s %s/%s", ErrNotFound, kind, namespace, name)
}

// commitCreate stores a new object, assigning its UID, store key, creation
// time and first resource version (on the caller's obj too, so the creator
// can link children to it). The store keeps a Clone: the creator goes on
// owning its struct, and the maps inside it are frozen from here on.
func (a *APIServer) commitCreate(obj Object) error {
	m := obj.GetMeta()
	key := m.Namespace + "/" + m.Name
	if _, exists := a.store(m.Kind)[key]; exists {
		return fmt.Errorf("%w: %s %s", ErrAlreadyExists, m.Kind, key)
	}
	m.UID = a.newUID()
	m.key = key
	m.Created = a.eng.Now()
	a.rev++
	m.ResourceVersion = a.rev
	stored := obj.Clone()
	a.store(m.Kind)[key] = stored
	a.own(m)
	a.notify(EventAdded, stored)
	return nil
}

// replace commits next as the new version of the stored object old: a
// fresh resource version, the store and owner index repointed, watchers
// notified. old itself is never written — every reader that holds it keeps
// the version it was handed.
func (a *APIServer) replace(old, next Object) {
	om, m := old.GetMeta(), next.GetMeta()
	a.rev++
	m.ResourceVersion = a.rev
	if om.OwnerUID != m.OwnerUID { // re-parented
		a.unown(om)
		a.own(m)
	}
	a.store(m.Kind)[m.Key()] = next
	a.notify(EventModified, next)
}

// commitUpdate replaces the stored object (by kind/namespace/name) with
// cp, which the store keeps, preserving UID, key and creation time. When
// cp's ResourceVersion is non-zero and stale the update fails with
// ErrConflict; zero skips the precondition. Like RemoveFinalizer, an update
// that drains a terminating object's finalizers completes its deletion.
func (a *APIServer) commitUpdate(cp Object) error {
	m := cp.GetMeta()
	old, ok := a.store(m.Kind)[m.Namespace+"/"+m.Name]
	if !ok {
		return notFound(m.Kind, m.Namespace, m.Name)
	}
	oldMeta := old.GetMeta()
	if m.ResourceVersion != 0 && m.ResourceVersion != oldMeta.ResourceVersion {
		return fmt.Errorf("%w: %s %s (update at %d, stored %d)",
			ErrConflict, m.Kind, m.Key(), m.ResourceVersion, oldMeta.ResourceVersion)
	}
	m.UID, m.key, m.Created = oldMeta.UID, oldMeta.key, oldMeta.Created
	a.replace(old, cp)
	a.reapIfDrained(m)
	return nil
}

// commitDelete begins deletion. With finalizers present a new version of
// the object enters the terminating state and watchers see a MODIFIED
// event; once the last finalizer is removed it disappears with a DELETED
// event. Without finalizers it is removed immediately. Children owned via
// OwnerUID are garbage-collected after the owner vanishes.
func (a *APIServer) commitDelete(kind Kind, namespace, name string) error {
	obj, ok := a.store(kind)[namespace+"/"+name]
	if !ok {
		return notFound(kind, namespace, name)
	}
	m := obj.GetMeta()
	if len(m.Finalizers) == 0 {
		a.finalizeDelete(kind, m.Key())
	} else if !m.Deleting {
		cp := obj.Clone()
		cp.GetMeta().Deleting = true
		a.replace(obj, cp)
	}
	return nil
}

// reapIfDrained completes a pending deletion once the stored object's
// finalizer list has drained.
func (a *APIServer) reapIfDrained(m *Meta) {
	if m.Deleting && len(m.Finalizers) == 0 {
		a.finalizeDelete(m.Kind, m.Key())
	}
}

// finalizeDelete removes the object and garbage-collects its children.
func (a *APIServer) finalizeDelete(kind Kind, key string) {
	s := a.store(kind)
	obj, ok := s[key]
	if !ok {
		return
	}
	delete(s, key)
	a.unown(obj.GetMeta())
	a.notify(EventDeleted, obj)
	a.collectOrphans(obj.GetMeta().UID)
}

// collectOrphans deletes every object owned by the vanished UID, read from
// the owner index. Orphans are deleted in sorted (kind, key) order so the
// garbage collector's event stream is deterministic. Each deletion is a
// server-internal write: it carries exactly one request delay like any
// delete, but bypasses the availability model — nobody is listening for its
// outcome, so a GC write failed by an outage would leak the child forever.
func (a *APIServer) collectOrphans(owner UID) {
	if owner == "" {
		return
	}
	orphans := slices.Clone(a.owned[owner])
	sort.Slice(orphans, func(i, j int) bool {
		if orphans[i].kind != orphans[j].kind {
			return orphans[i].kind < orphans[j].kind
		}
		if orphans[i].ns != orphans[j].ns {
			return orphans[i].ns < orphans[j].ns
		}
		return orphans[i].name < orphans[j].name
	})
	for _, o := range orphans {
		a.eng.After(a.reqDelay(), func() {
			// ErrNotFound is the only failure: something else already
			// deleted the child.
			_ = a.commitDelete(o.kind, o.ns, o.name)
		})
	}
}

// commitRemoveFinalizer commits a version of the object without f and
// completes a pending delete when the finalizer list drains.
func (a *APIServer) commitRemoveFinalizer(kind Kind, namespace, name, f string) error {
	obj, ok := a.store(kind)[namespace+"/"+name]
	if !ok {
		return notFound(kind, namespace, name)
	}
	cp := obj.Clone()
	m := cp.GetMeta()
	m.removeFinalizer(f)
	a.replace(obj, cp)
	a.reapIfDrained(m)
	return nil
}

// commitStatus applies fn to a Clone of the stored object and commits it
// when fn reports a change (status writes from node agents are modelled as
// cheap: no request delay).
func (a *APIServer) commitStatus(kind Kind, namespace, name string, fn func(Object) bool) error {
	obj, ok := a.store(kind)[namespace+"/"+name]
	if !ok {
		return notFound(kind, namespace, name)
	}
	if cp := obj.Clone(); fn(cp) {
		a.replace(obj, cp)
	}
	return nil
}
