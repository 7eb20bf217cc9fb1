package k8s

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// IndexKey is the value an object is filed under in one index: a pair, so
// that a namespaced name is two strings the object already holds and neither
// filing nor looking up builds one. A one-string value goes in Name.
type IndexKey struct{ Namespace, Name string }

// IndexFunc computes the value an object is filed under in one index; the
// zero IndexKey leaves the object out of it.
type IndexFunc func(Object) IndexKey

// Built-in index names. Consumers register further indexes per informer
// (e.g. vniapi's VNIs-by-job index).
const (
	// IndexPodJob files pods under {namespace, job-name} (the job-name
	// label the job controller stamps on its pods).
	IndexPodJob = "pod-job"
	// IndexOwner files objects under {"", OwnerUID}.
	IndexOwner = "owner"
)

// PodJobIndex is the IndexFunc behind IndexPodJob.
func PodJobIndex(obj Object) IndexKey {
	p, ok := obj.(*Pod)
	if !ok {
		return IndexKey{}
	}
	job := p.Meta.Labels["job-name"]
	if job == "" {
		return IndexKey{}
	}
	return IndexKey{p.Meta.Namespace, job}
}

// OwnerIndex is the IndexFunc behind IndexOwner.
func OwnerIndex(obj Object) IndexKey { return IndexKey{Name: string(obj.GetMeta().OwnerUID)} }

// WatchOptions scope a watch registration. The zero value watches the whole
// kind, like the raw APIServer.Watch broadcast.
type WatchOptions struct {
	// Namespace restricts delivery to one namespace ("" = all).
	Namespace string
	// Selector, when non-nil, must admit the event object: the committed
	// object a matching handler then receives.
	Selector func(Object) bool
}

func (o WatchOptions) matches(obj Object) bool {
	if o.Namespace != "" && obj.GetMeta().Namespace != o.Namespace {
		return false
	}
	return o.Selector == nil || o.Selector(obj)
}

type watchReg struct {
	opts    WatchOptions
	handler func(Event)
}

// cell is the cache entry of one key for as long as the key is cached: the
// object map, the per-namespace view and every index bucket point at the
// cell, so absorbing a new version of the object is one pointer store. Where
// it is filed is not recorded: index functions are pure and obj immutable,
// so they say it again when an update compares or a removal unfiles.
type cell struct{ obj Object }

// bucket is the set of cells filed under one value. Most values — a 1-pod
// job's pods, an owner's one child — file one object, so the first entry
// sits in the bucket itself and m, object key -> cell, is made for the
// second. c is nil while that slot is free, even beside a populated m.
type bucket struct {
	c *cell
	m map[string]*cell
}

func (b bucket) len() int {
	if b.c == nil {
		return len(b.m)
	}
	return 1 + len(b.m)
}

// appendTo appends the bucket's objects to dst in key order.
func (b bucket) appendTo(dst []Object) []Object {
	n := len(dst)
	// Not slices.Grow: under the race detector its append-of-make idiom
	// allocates twice, and allocation budgets are held under -race too.
	if need := n + b.len(); need > cap(dst) {
		dst = append(make([]Object, 0, need), dst...)
	}
	if b.c != nil {
		dst = append(dst, b.c.obj)
	}
	for _, c := range b.m {
		dst = append(dst, c.obj)
	}
	slices.SortFunc(dst[n:], func(x, y Object) int { return strings.Compare(x.GetMeta().Key(), y.GetMeta().Key()) })
	return dst
}

type informerIndex struct {
	name    string
	fn      IndexFunc
	buckets map[IndexKey]bucket
}

// file adds c, the cell of key and not yet in it, to bucket v of m; unfile
// takes it out again and drops the bucket with its last entry. The
// per-namespace view and every index go through this pair, whether the cell
// arrives by event, backfill or relist.
func file(m map[IndexKey]bucket, v IndexKey, key string, c *cell) {
	b := m[v]
	switch {
	case b.c == nil:
		b.c = c
	case b.m == nil:
		b.m = map[string]*cell{key: c}
	default:
		b.m[key] = c
	}
	m[v] = b
}

func unfile(m map[IndexKey]bucket, v IndexKey, key string, c *cell) {
	b := m[v]
	if b.c == c {
		b.c = nil
	} else {
		delete(b.m, key)
	}
	if m[v] = b; b.len() == 0 {
		delete(m, v)
	}
}

// Informer maintains a local cache of one kind, fed by the API server's
// watch stream, plus named indexes over that cache. The cache lags the
// store by at most the watch-delivery latency; event handlers registered
// through Client.Watch run after the cache (and every index) has absorbed
// the event, so a handler reading through a Lister always sees at least the
// state that triggered it — the ordering real shared informers guarantee.
type Informer struct {
	api  *APIServer
	kind Kind
	objs map[string]*cell
	// byNS is the per-namespace view: the cells under {namespace, ""}.
	byNS     map[IndexKey]bucket
	indexes  []*informerIndex
	handlers []*watchReg
	// changes counts the mutations of the cache (apply, remove, relist),
	// from 1 so that no state of the cache equals a zero mark: what
	// Lister.Unchanged compares.
	changes uint64
	// upstream is this informer's registration with the apiserver, kept so
	// a relist can repair its own severed stream.
	upstream *watcher
	// lastSeq is the per-kind commit sequence of the last absorbed watch
	// event (or the relist horizon); probeSeq is lastSeq at the previous
	// prober tick, so the prober can tell a lagging stream from a dead one.
	lastSeq  uint64
	probeSeq uint64
	// hasGap/gapSince track how long the cache has been behind the store
	// without the stream making progress.
	hasGap   bool
	gapSince sim.Time
	// stale marks the window between gap detection and repair; lister reads
	// in that window are counted as stale.
	stale        bool
	relists      uint64
	staleReads   uint64
	maxStaleness sim.Duration
}

func newInformer(api *APIServer, kind Kind) *Informer {
	inf := &Informer{api: api, kind: kind, changes: 1}
	// Initial LIST: seed the cache from the store synchronously so an
	// informer created after objects already exist starts warm.
	inf.load()
	inf.upstream = api.watch(kind, inf.onEvent)
	return inf
}

// load replaces the cache with the store's current content — the initial
// LIST and the relist — and returns the cells it replaced. Nothing runs
// between the first store and the last (index functions are pure), so no
// handler or lister sees the cache half-built.
func (inf *Informer) load() (old map[string]*cell) {
	old = inf.objs
	store := inf.api.store(inf.kind)
	inf.objs = make(map[string]*cell, len(store))
	inf.byNS = make(map[IndexKey]bucket)
	for _, ix := range inf.indexes {
		ix.buckets = make(map[IndexKey]bucket)
	}
	for key, obj := range store {
		inf.apply(key, obj)
	}
	inf.lastSeq = inf.api.kindSeq[inf.kind]
	return old
}

// AddIndex registers (idempotently) a named index and backfills it from the
// current cache. Registering the same name twice is a no-op, so independent
// consumers can each declare the indexes they need.
func (inf *Informer) AddIndex(name string, fn IndexFunc) {
	for _, ix := range inf.indexes {
		if ix.name == name {
			return
		}
	}
	ix := &informerIndex{name: name, fn: fn, buckets: make(map[IndexKey]bucket)}
	inf.indexes = append(inf.indexes, ix)
	for key, c := range inf.objs {
		if v := fn(c.obj); v != (IndexKey{}) {
			file(ix.buckets, v, key, c)
		}
	}
}

// index returns the named index; asking for one nobody registered is a bug.
func (inf *Informer) index(name string) *informerIndex {
	for _, ix := range inf.indexes {
		if ix.name == name {
			return ix
		}
	}
	panic(fmt.Sprintf("k8s: lister for %s: index %q not registered", inf.kind, name))
}

// Lister returns the read view over this informer's cache.
func (inf *Informer) Lister() Lister { return Lister{inf: inf} }

// apply absorbs obj as the current version of key. On a key already cached
// that is one lookup and one pointer store; an index is touched only when
// the object's value in it changed (a pod's job and an object's owner
// almost never do).
func (inf *Informer) apply(key string, obj Object) {
	inf.changes++
	c := inf.objs[key]
	if c == nil {
		c = &cell{}
		inf.objs[key] = c
		file(inf.byNS, IndexKey{Namespace: obj.GetMeta().Namespace}, key, c)
	}
	old := c.obj
	c.obj = obj
	for _, ix := range inf.indexes {
		var was IndexKey
		if old != nil {
			was = ix.fn(old)
		}
		v := ix.fn(obj)
		if v == was {
			continue
		}
		if was != (IndexKey{}) {
			unfile(ix.buckets, was, key, c)
		}
		if v != (IndexKey{}) {
			file(ix.buckets, v, key, c)
		}
	}
}

func (inf *Informer) remove(key string) {
	c := inf.objs[key]
	if c == nil {
		return
	}
	inf.changes++
	delete(inf.objs, key)
	unfile(inf.byNS, IndexKey{Namespace: c.obj.GetMeta().Namespace}, key, c)
	for _, ix := range inf.indexes {
		if v := ix.fn(c.obj); v != (IndexKey{}) {
			unfile(ix.buckets, v, key, c)
		}
	}
}

// onEvent absorbs one watch event into the cache, then dispatches it to
// matching handlers. Every handler receives the event as absorbed: for an
// add or update its object is the cache entry itself, which is the store's.
func (inf *Informer) onEvent(ev Event) {
	if ev.Seq != 0 && ev.Seq <= inf.lastSeq {
		// An in-flight delivery from before a relist: its effect is already
		// in the snapshot the relist rebuilt and replayed. Drop it.
		return
	}
	inf.lastSeq = ev.Seq
	key := ev.Object.GetMeta().Key()
	switch ev.Type {
	case EventDeleted:
		inf.remove(key)
	default:
		inf.apply(key, ev.Object)
	}
	inf.dispatch(ev)
}

// dispatch fans one event out to matching handlers: the same committed
// object to each, so delivery cost does not grow with the subscriber count.
func (inf *Informer) dispatch(ev Event) {
	for _, reg := range inf.handlers {
		if reg.opts.matches(ev.Object) {
			reg.handler(ev)
		}
	}
}

// relist rebuilds the cache from a fresh store snapshot and replays the
// diff to handlers — the informer resync path behind a broken or stalled
// watch. The new cache (objects, per-namespace view, every index) is
// complete before any handler runs, so handlers and listers never observe a
// half-updated view; the replayed events then re-deliver the missed changes
// in sorted key order.
func (inf *Informer) relist() {
	inf.relists++
	if inf.upstream.broken {
		inf.api.resumeWatch(inf.upstream)
	}
	if t, ok := inf.api.takeFirstMissed(inf.kind); ok {
		if d := inf.api.eng.Now().Sub(t); d > inf.maxStaleness {
			inf.maxStaleness = d
		}
	}
	old := inf.load()
	objs, horizon := inf.objs, inf.lastSeq
	inf.changes++
	inf.probeSeq = horizon
	inf.stale = false
	inf.hasGap = false

	// Replay: synthesize the diff between the old cache and the snapshot.
	keys := make([]string, 0, len(old)+len(objs))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range objs {
		if _, dup := old[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		was, is := old[key], objs[key]
		switch {
		case is == nil:
			inf.dispatch(Event{Type: EventDeleted, Object: was.obj, Seq: horizon})
		case was == nil:
			inf.dispatch(Event{Type: EventAdded, Object: is.obj, Seq: horizon})
		case was.obj.GetMeta().ResourceVersion != is.obj.GetMeta().ResourceVersion:
			inf.dispatch(Event{Type: EventModified, Object: is.obj, Seq: horizon})
		}
	}
}

// noteRead counts lister reads served while the cache is known stale.
func (inf *Informer) noteRead() {
	if inf.stale {
		inf.staleReads++
	}
}

// Lister is a cached, index-capable read view over one kind. Reads cost no
// API round trip and hand out committed objects: read-only, like every read
// (docs/controlplane.md, "Object ownership"). An index is read by the
// IndexKey its IndexFunc files under; AppendByIndex into a buffer the caller
// keeps makes the read allocate nothing.
type Lister struct {
	inf *Informer
}

// Get returns the cached object, if present.
func (l Lister) Get(namespace, name string) (Object, bool) {
	l.inf.noteRead()
	if c := l.inf.objs[namespace+"/"+name]; c != nil {
		return c.obj, true
	}
	return nil, false
}

// List returns the cached objects of the namespace ("" = all) in key order.
func (l Lister) List(namespace string) []Object {
	l.inf.noteRead()
	if namespace == "" {
		return bucket{m: l.inf.objs}.appendTo(nil)
	}
	return l.inf.byNS[IndexKey{Namespace: namespace}].appendTo(nil)
}

// AppendByIndex appends to dst the cached objects filed under key in the
// named index, in object-key order. O(match), not O(all objects).
func (l Lister) AppendByIndex(dst []Object, name string, key IndexKey) []Object {
	l.inf.noteRead()
	return l.inf.index(name).buckets[key].appendTo(dst)
}

// ByIndex is AppendByIndex into a new slice (nil when nothing matches).
func (l Lister) ByIndex(name string, key IndexKey) []Object {
	return l.AppendByIndex(nil, name, key)
}

// IndexCount reports how many cached objects are filed under key.
func (l Lister) IndexCount(name string, key IndexKey) int {
	l.inf.noteRead()
	return l.inf.index(name).buckets[key].len()
}

// Unchanged reports whether the cache is as it was when the previous call
// with the same mark returned; the zero mark has seen nothing. It lets a
// caller that polls — a wait predicate the engine asks after every event —
// keep its last answer instead of reading again. A true result stands for
// the read the caller then skips and is accounted like one, so stale-read
// counts do not depend on who polls this way.
func (l Lister) Unchanged(mark *uint64) bool {
	if *mark != l.inf.changes {
		*mark = l.inf.changes
		return false
	}
	l.inf.noteRead()
	return true
}

// Client is the typed control-plane client: request-scoped writes with
// Response handles, live Gets, informer-backed listers with indexes, and
// filtered watch registration. One Client is shared per API server
// (APIServer.Client), so all consumers see the same caches.
type Client struct {
	api       *APIServer
	informers map[Kind]*Informer
	stats     CPStats
	// prober is the pending fault-recovery resync tick (ArmFaults); the
	// handle is live exactly while the prober runs.
	prober sim.Event
	// rec, when a test or the fuzzer armed it, joins every new informer.
	rec *CommitRecorder
}

func newClient(api *APIServer) *Client {
	return &Client{api: api, informers: make(map[Kind]*Informer)}
}

// The write policy. Each knob has only ever had one value, so they are
// constants; the budget's total backoff span (~4s) outlasts the outage
// windows the chaos scenarios inject.
const (
	retryBudget   = 10                     // reissues after transient failures before ErrRetriesExhausted
	baseBackoff   = 20 * time.Millisecond  // first retry delay; doubles per retry
	maxBackoff    = 800 * time.Millisecond // cap on the doubling
	backoffJitter = 0.5                    // uniform fraction applied to each delay
	// requestDeadline bounds each attempt once faults are armed; a request
	// not committed by then is dropped on the wire and fails with ErrTimeout.
	requestDeadline = 250 * time.Millisecond
	// maxConflicts caps Patch's consecutive conflict re-reads; in a
	// single-threaded simulation more than a handful indicates a logic error.
	maxConflicts = 16
)

// CPStats aggregates the control-plane fault-layer counters: retry-layer
// activity on the client plus relist/staleness counters from the shared
// informers.
type CPStats struct {
	// Retries counts reissues after ErrUnavailable/ErrTimeout.
	Retries uint64
	// Conflicts counts ErrConflict re-reads inside Patch.
	Conflicts uint64
	// Timeouts counts client-deadline expiries.
	Timeouts uint64
	// Exhausted counts requests that spent their whole retry budget.
	Exhausted uint64
	// Relists counts informer resyncs (relist-and-replay repairs).
	Relists uint64
	// StaleReads counts lister reads served between gap detection and
	// repair.
	StaleReads uint64
	// MaxStalenessUs is the longest observed cache staleness at repair
	// time: relist time minus the commit time of the oldest missed event.
	MaxStalenessUs float64
}

// Stats snapshots the fault-layer counters.
func (c *Client) Stats() CPStats {
	s := c.stats
	for _, inf := range c.informers {
		s.Relists += inf.relists
		s.StaleReads += inf.staleReads
		if us := float64(inf.maxStaleness.Microseconds()); us > s.MaxStalenessUs {
			s.MaxStalenessUs = us
		}
	}
	return s
}

// Engine exposes the simulation engine (the virtual clock all request and
// watch latencies run on).
func (c *Client) Engine() *sim.Engine { return c.api.eng }

// API exposes the underlying low-level store, for test rigs and migration
// shims. Controllers should not reach through it on hot paths.
func (c *Client) API() *APIServer { return c.api }

// Informer returns (creating on first use) the shared informer for kind.
func (c *Client) Informer(kind Kind) *Informer {
	inf, ok := c.informers[kind]
	if !ok {
		inf = newInformer(c.api, kind)
		c.informers[kind] = inf
		if c.rec != nil {
			c.rec.attach(inf)
		}
	}
	return inf
}

// Lister returns the cached read view for kind.
func (c *Client) Lister(kind Kind) Lister { return c.Informer(kind).Lister() }

// Watch registers handler for events on kind scoped by opts. Handlers run
// after the shared informer cache has absorbed the event, in registration
// order, so lister reads from inside a handler always include the event.
// The event object is the committed one, shared by every handler and read:
// Clone before keeping and writing one (see the kubelet).
func (c *Client) Watch(kind Kind, opts WatchOptions, handler func(Event)) {
	inf := c.Informer(kind)
	inf.handlers = append(inf.handlers, &watchReg{opts: opts, handler: handler})
}

// Get performs a live (quorum) read of the committed object. To write it
// back, edit a Clone and Update — or let Patch do both.
func (c *Client) Get(kind Kind, namespace, name string) (Object, bool) {
	return c.api.Get(kind, namespace, name)
}

// The six write verbs share one attempt loop (request.settle): transient
// failures — ErrUnavailable, and ErrTimeout once the fault layer is armed —
// are retried behind jittered exponential backoff until the budget is spent,
// then surface as ErrRetriesExhausted wrapping the last one; any other error
// passes through. On a never-armed server the loop is the identity: one
// engine event, one RNG draw, no timer.

// Create submits obj; the Response completes after the API round trip. The
// server stamps UID, creation time and resource version on obj itself.
func (c *Client) Create(obj Object) *Response {
	return c.do(&request{verb: verbCreate, obj: obj})
}

// Update submits a conflict-checked replacement of obj, Cloned at the
// call: the caller keeps its struct, the maps inside are frozen. A non-zero
// ResourceVersion that another writer has overtaken fails with ErrConflict,
// which passes through (read-modify-write callers use Patch); zero skips
// the precondition.
func (c *Client) Update(obj Object) *Response {
	return c.do(&request{verb: verbUpdate, obj: obj.Clone()})
}

// Delete begins deletion of the named object: immediate without
// finalizers, else the object turns terminating until the last finalizer
// is removed. Children owned via OwnerUID are garbage-collected after it.
func (c *Client) Delete(kind Kind, namespace, name string) *Response {
	return c.do(&request{verb: verbDelete, kind: kind, ns: namespace, name: name})
}

// RemoveFinalizer removes f from the named object, completing a pending
// deletion when the list drains. Dropped to an outage it would wedge the
// deletion forever, which is why no write skips the retry loop.
func (c *Client) RemoveFinalizer(kind Kind, namespace, name, f string) *Response {
	return c.do(&request{verb: verbRemoveFinalizer, kind: kind, ns: namespace, name: name, fin: f})
}

// UpdateStatus is the node agents' status write: fn runs against the live
// stored object and reports whether it changed anything. On a healthy
// server it commits synchronously — the Response is complete on return —
// and it queues behind backoff while the server is unavailable. A missing
// object completes with ErrNotFound (it was deleted; the write is moot).
func (c *Client) UpdateStatus(kind Kind, namespace, name string, fn func(Object) bool) *Response {
	return c.do(&request{verb: verbUpdateStatus, kind: kind, ns: namespace, name: name, fn: fn})
}

// Patch is the read-modify-write verb: it Gets the latest object, applies
// mutate, and Updates with the fresh ResourceVersion; on ErrConflict it
// re-reads and retries — immediately on the first conflict (the common
// lost-race case), behind the jittered backoff on consecutive ones once
// the fault layer is armed, and never more than maxConflicts times before
// failing with ErrRetriesExhausted. mutate returning false skips the write
// and completes the Response with nil (nothing to do). mutate may be
// called several times and must therefore be idempotent against the
// object it is handed. That object is a Clone of the committed one, and the
// very struct the store will keep once the write commits: mutate edits its
// fields, replaces (never writes into) its maps, and must not retain it.
func (c *Client) Patch(kind Kind, namespace, name string, mutate func(Object) bool) *Response {
	return c.do(&request{verb: verbPatch, kind: kind, ns: namespace, name: name, fn: mutate})
}

type verb uint8

const (
	verbCreate verb = iota
	verbUpdate
	verbDelete
	verbRemoveFinalizer
	verbUpdateStatus
	verbPatch
)

// request is one client write from call to completion: the Response the
// caller holds, the verb's operands and the retry state the attempt loop
// spends. It is the only allocation the write path adds to a commit; the
// commit, deadline and backoff events carry it through Engine.AfterCall.
type request struct {
	Response
	c    *Client
	verb verb
	// obj is the object Create stamps, the Clone Update stores, and the
	// Clone Patch's mutate edited in the current attempt.
	obj               Object
	kind              Kind // kind/ns/name address the keyed verbs' object
	ns, name, fin     string
	fn                func(Object) bool // UpdateStatus's or Patch's callback
	budget, conflicts int               // transient retries left; Patch re-reads so far
	backoff           sim.Duration      // next retry delay, before jitter
	// pending is the queued server commit, deadline the timer that drops it
	// on the wire; both are stale between attempts.
	pending, deadline sim.Event
}

func (c *Client) do(r *request) *Response {
	r.c, r.budget, r.backoff = c, retryBudget, baseBackoff
	r.attempt()
	return &r.Response
}

// attempt issues the request once. UpdateStatus commits on the spot; every
// other verb queues its commit one request delay out and — only once the
// fault layer is armed, so fault-free timelines never see the timer — a
// deadline.
func (r *request) attempt() {
	a := r.c.api
	switch r.verb {
	case verbUpdateStatus:
		r.settle(a.commit(r))
		return
	case verbPatch:
		obj, ok := a.Get(r.kind, r.ns, r.name)
		if !ok {
			r.complete(notFound(r.kind, r.ns, r.name))
			return
		}
		cp := obj.Clone()
		if !r.fn(cp) {
			r.complete(nil)
			return
		}
		r.obj = cp // handed on to the store once the write commits (mutate must not keep it)
	}
	a.submit(r)
	if a.faults != nil {
		r.deadline = a.eng.AfterCall(requestDeadline, deadlineCall, r)
	}
}

// deadlineCall fires when an attempt outlives requestDeadline: the pending
// server commit is cancelled — the request is dropped on the wire, never
// half-applied — and the attempt fails with ErrTimeout.
func deadlineCall(arg any) {
	r := arg.(*request)
	r.pending.Cancel()
	r.c.stats.Timeouts++
	r.settle(ErrTimeout)
}

// settle is the one place an attempt's outcome is classified: done or
// terminal (complete the Response), conflict (Patch only: re-read, the
// first time immediately) or transient (reissue while the budget lasts).
// Retries wait one jittered backoff interval, which doubles up to the cap;
// a spent cap or budget is the single ErrRetriesExhausted.
func (r *request) settle(err error) {
	r.deadline.Cancel()
	c := r.c
	var retry bool
	switch {
	case r.verb == verbPatch && errors.Is(err, ErrConflict):
		c.stats.Conflicts++
		if retry = r.conflicts < maxConflicts; retry {
			r.conflicts++
			if r.conflicts == 1 || c.api.faults == nil {
				// The common lost-race case — and the only conflict path
				// while the fault layer is dormant, so fault-free timelines
				// draw no backoff jitter.
				r.attempt()
				return
			}
		}
	case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout):
		if retry = r.budget > 0; retry {
			r.budget--
			c.stats.Retries++
		}
	default:
		r.complete(err)
		return
	}
	if !retry {
		c.stats.Exhausted++
		r.complete(fmt.Errorf("%w: %w", ErrRetriesExhausted, err))
		return
	}
	eng := c.api.eng
	eng.AfterCall(eng.Jitter(r.backoff, backoffJitter), retryCall, r)
	r.backoff = min(r.backoff*2, maxBackoff)
}

func retryCall(arg any) { arg.(*request).attempt() }

// resyncInterval is the fault-recovery prober period: how often informer
// caches are checked for watch gaps. Detection latency for a dead stream
// is at most two periods.
const resyncInterval = 100 * time.Millisecond

// ArmFaults arms the control-plane fault layer in one step: the API server
// starts modelling availability (in the up state; request deadlines engage)
// and the informer resync prober starts — a fixed tick that detects broken
// or stalled watch streams via per-kind sequence gaps and repairs them by
// relist-and-replay. Idempotent. The scenario layer calls it when the first
// control-plane fault event executes, so fault-free runs schedule no tick.
func (c *Client) ArmFaults() {
	c.api.armFaults()
	if c.prober.At() == 0 {
		c.prober = c.api.eng.After(resyncInterval, c.probeTick)
	}
}

// FaultsArmed reports whether the fault layer was ever armed, through
// ArmFaults or by a fault call on the API server. It is the one answer to
// "is the control-plane layer on"; consumers keep no copy.
func (c *Client) FaultsArmed() bool { return c.api.faults != nil }

// StopFaultRecovery stops the prober and performs one final repair sweep:
// any informer still behind the store (severed stream or undelivered gap)
// is relisted, so post-run drains converge deterministically. No-op unless
// the prober is running.
func (c *Client) StopFaultRecovery() {
	if c.prober.At() == 0 {
		return
	}
	c.prober.Cancel()
	for _, kind := range c.sortedKinds() {
		inf := c.informers[kind]
		if inf.upstream.broken || c.api.kindSeq[kind] > inf.lastSeq {
			inf.relist()
		}
	}
}

func (c *Client) sortedKinds() []Kind {
	kinds := make([]Kind, 0, len(c.informers))
	for k := range c.informers {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

func (c *Client) probeTick() {
	now := c.api.eng.Now()
	for _, kind := range c.sortedKinds() {
		inf := c.informers[kind]
		gap := c.api.kindSeq[kind] > inf.lastSeq
		switch {
		case !gap:
			inf.stale = false
			inf.hasGap = false
		case !inf.hasGap || inf.lastSeq != inf.probeSeq:
			// New gap, or the stream moved since the last probe: it may
			// just be delivery lag. Mark stale, restart the clock.
			inf.hasGap = true
			inf.gapSince = now
			inf.stale = true
		case now.Sub(inf.gapSince) >= resyncInterval:
			// The gap persisted a full period with zero progress: the
			// stream is severed or stalled. Relist.
			inf.relist()
		}
		inf.probeSeq = inf.lastSeq
	}
	c.prober = c.api.eng.After(resyncInterval, c.probeTick)
}

// VerifyCaches compares every informer cache against the live store: same
// key sets, same per-key ResourceVersions, and each cache entry the store's
// own object. It returns nil when every cache has fully converged — the
// post-drain eventual-convergence check behind the fuzzer invariant and the
// cp_converged assertion. (Writes to a committed object are the
// CommitRecorder's to catch: cache and store share them.)
func (c *Client) VerifyCaches() error {
	for _, kind := range c.sortedKinds() {
		inf := c.informers[kind]
		store := c.api.store(kind)
		if len(inf.objs) != len(store) {
			return fmt.Errorf("k8s: %s cache has %d objects, store has %d",
				kind, len(inf.objs), len(store))
		}
		keys := make([]string, 0, len(store))
		for k := range store {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			c := inf.objs[key]
			if c == nil {
				return fmt.Errorf("k8s: %s cache missing %s", kind, key)
			}
			cached := c.obj
			crv, srv := cached.GetMeta().ResourceVersion, store[key].GetMeta().ResourceVersion
			if crv != srv {
				return fmt.Errorf("k8s: %s cache stale at %s (cached rv %d, stored %d)",
					kind, key, crv, srv)
			}
			if cached != store[key] {
				return fmt.Errorf("k8s: %s cache entry %s is not the store's object (equal rv %d)", kind, key, crv)
			}
		}
	}
	return nil
}
