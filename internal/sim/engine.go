package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Event is a cancellable handle to a scheduled callback. It is a small
// value (engine pointer, arena slot, generation): the event's storage lives
// in the engine's pooled arena and is reused after the event fires or is
// cancelled, so per-event scheduling performs no heap allocation. The
// generation check makes a stale handle — one whose slot has since been
// recycled for a different event — a guaranteed no-op, so holding handles
// past firing is always safe.
//
// The zero Event is valid and inert: Cancel and At on it do nothing.
type Event struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel removes the event from the queue so its callback will not run. It
// is idempotent and safe at any time: cancelling a fired, already-cancelled
// or recycled event is a no-op. Removal is eager (the slot is freed and the
// run or the heap shrinks immediately), so heavy cancellation leaves no
// tombstones for the dispatch loop to skim.
func (h Event) Cancel() {
	e := h.eng
	if e == nil {
		return
	}
	ev := &e.arena[h.idx]
	if ev.gen != h.gen || !ev.queued() {
		return // fired, cancelled, or slot recycled since
	}
	if ev.pos == inRun {
		e.runRemove(h.idx)
	} else {
		e.heapRemove(int(ev.pos))
	}
	e.live--
	e.release(h.idx)
}

// At returns the virtual time the event is scheduled for, or zero once the
// event has fired or been cancelled (the handle is then stale).
func (h Event) At() Time {
	e := h.eng
	if e == nil {
		return 0
	}
	ev := &e.arena[h.idx]
	if ev.gen != h.gen || !ev.queued() {
		return 0
	}
	return ev.at
}

// event is one arena slot. Slots are addressed by index so the backing
// array can grow without invalidating handles, and carry a generation
// bumped on every release so stale handles cannot alias a reused slot.
//
// A slot is in one of four states: free (on the free list), queued in the
// run (pos == inRun) or in the heap (pos ≥ 0), or parked (pos == parked: a
// Lane post waiting behind its lane's previous event, reachable only
// through that event's next).
// The struct is 56 bytes and must stay so: the arena is the engine's one
// large allocation, and the control-plane workloads pay for every byte.
type event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among events at the same instant
	// fn(arg) is the only callback form: a shared top-level function plus
	// an argument, so scheduling captures nothing. At and After store the
	// caller's closure as arg under callFunc.
	fn   func(any)
	arg  any
	pos  int32 // position in the heap; unqueued, parked or inRun when negative
	gen  uint32
	next int32 // the slot parked behind this one, -1 when none (see Lane)
}

// Negative values of event.pos.
const (
	unqueued int32 = -1 // free, or between alloc and push
	parked   int32 = -2 // waiting on a predecessor's next, in neither queue nor free list
	inRun    int32 = -3 // in the run; Cancel finds it by a scan of at most runCap slots
)

// queued reports whether the slot is in the run or the heap: the states a
// live handle can see.
func (ev *event) queued() bool { return ev.pos >= 0 || ev.pos == inRun }

// callFunc is the fn of every At/After event: the closure rides in arg (a
// func value in an interface is one pointer, no allocation).
func callFunc(a any) {
	if fn := a.(func()); fn != nil {
		fn()
	}
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; simulated concurrency is expressed by scheduling events,
// not by goroutines, which keeps runs deterministic.
//
// Event storage is a pooled arena: fired and cancelled events return their
// slot to a free list, so a steady-state simulation schedules events with
// zero heap allocations regardless of length. The priority queue has two
// tiers of arena indexes, both ordered by (time, sequence), so events at
// the same instant run in FIFO order exactly as they always have:
//
//   - the run, a sorted ring of at most runCap slots holding the earliest
//     pending events: a pop takes its head, a push scans in from its tail
//     (see the run section below). The collectives keep 9–28 events
//     pending, so the run is their whole queue;
//   - a hand-rolled binary heap for everything that sorts after the run's
//     tail — no interface boxing, hole-based sifts, bottom-up deletion
//     with a branch-free child pick (see the heap section) — which serves
//     the control plane's thousands of pending timers.
//
// Every run entry sorts before the heap's root, so the run's head, or the
// heap's root when the run is empty, is the next event. Events posted
// through a Lane carry the same key but may wait outside both tiers,
// parked behind the lane's previous event, until that one fires.
type Engine struct {
	now   Time
	arena []event
	free  []int32 // recycled arena slots, LIFO
	heap  []int32 // binary heap of queued slots after the run, ordered by (at, seq)
	seq   uint64
	live  int // queued and parked events; Pending() reads this in O(1)
	rng   *rand.Rand
	// The run is run[runHead&runMask :][:runLen], wrapping: the earliest
	// queued slots in (at, seq) order.
	runHead, runLen uint32
	// Steps counts executed events, useful as a runaway guard in tests.
	Steps uint64
	// Elided counts events skipped by analytic fast paths (the fabric's
	// flow-level transfer mode): events that would have been scheduled and
	// retired under full packet fidelity, but whose effects were applied in
	// closed form instead. Steps+Elided is therefore the packet-fidelity-
	// equivalent event count, the basis of perfsuite's events/s metric, so
	// throughput numbers stay comparable across fidelity modes.
	Elided uint64
	// Parked counts Lane posts that waited behind their predecessor
	// instead of entering the queue until it fired.
	Parked uint64
	// Heaped counts events that entered the binary heap: posts and lane
	// promotions the run could not take, and run tails evicted to make
	// room. Heaped/Steps is about the share of events the heap served, the
	// rest the run's.
	Heaped  uint64
	run     [runCap]int32 // after the hot fields, which share cache lines
	ticking int           // running Tickers (ticker.go); cold
}

// NewEngine returns an engine whose randomness derives from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now implements Clock.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic randomness source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc returns a free arena slot, growing the arena when the free list is
// empty. Growth moves the backing array, which is why all bookkeeping works
// through indexes, never retained pointers.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.arena = append(e.arena, event{gen: 1, pos: unqueued, next: -1})
	return int32(len(e.arena) - 1)
}

// release returns a slot to the free list, clearing callback references so
// captured memory is not retained and bumping the generation so any handle
// still pointing here goes stale. The slot's next is already -1: Step
// clears it when it promotes the successor, and a slot that can be
// cancelled never had one.
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.fn, ev.arg = nil, nil
	ev.pos = unqueued
	ev.gen++
	e.free = append(e.free, idx)
}

// schedule takes an arena slot and the next seq for fn(arg) at t — the
// order key is fixed here and never again — and queues the slot: in the
// run or the heap, or, for a post through lane l whose newest event is
// still pending and not later than t, parked behind that event (see Lane).
func (e *Engine) schedule(t Time, fn func(any), arg any, l *Lane) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc()
	ev := &e.arena[idx]
	ev.at, ev.seq = t, e.seq
	ev.fn, ev.arg = fn, arg
	e.seq++
	e.live++
	if l != nil {
		// A slot's generation moves on when it fires, so a match means
		// the lane's newest event is still to come. gen 0 is the empty
		// lane: arena generations start at 1.
		tail := &e.arena[l.tail]
		behind := tail.gen == l.gen && l.at <= t
		l.tail, l.gen, l.at = idx, ev.gen, t
		if behind {
			tail.next = idx
			ev.pos = parked
			e.Parked++
			return Event{}
		}
	}
	e.push(idx)
	return Event{eng: e, idx: idx, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in a simulated component.
func (e *Engine) At(t Time, fn func()) Event {
	return e.schedule(t, callFunc, fn, nil)
}

// After schedules fn to run d after the current time. Negative d is clamped
// to zero so jittered delays cannot travel backwards.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now.Add(d), callFunc, fn, nil)
}

// AtCall schedules fn(arg) at absolute virtual time t. Unlike At, the
// callback and its argument are stored separately, so hot paths can pass a
// shared top-level function plus a pooled argument struct and schedule
// without allocating a closure. This is the packet-delivery primitive: the
// fabric, NIC and MPI layers route all per-packet/per-message events
// through it.
func (e *Engine) AtCall(t Time, fn func(arg any), arg any) Event {
	return e.schedule(t, fn, arg, nil)
}

// AfterCall is AtCall relative to the current time, with the same negative
// clamping as After.
func (e *Engine) AfterCall(d Duration, fn func(arg any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now.Add(d), fn, arg, nil)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	var idx int32
	switch {
	case e.runLen > 0:
		idx = e.run[e.runHead&runMask]
		e.runHead++
		e.runLen--
	case len(e.heap) > 0:
		idx = e.heapRemove(0)
	default:
		return false
	}
	ev := &e.arena[idx]
	if nx := ev.next; nx >= 0 {
		// The lane's next event enters the queue now that nothing of its
		// lane is ahead of it, by the same push as any post.
		ev.next = -1
		e.push(nx)
	}
	// Copy out before releasing: the callback may schedule (growing the
	// arena and invalidating ev) or immediately reuse this very slot.
	at, fn, arg := ev.at, ev.fn, ev.arg
	e.live--
	e.release(idx)
	e.now = at
	e.Steps++
	if fn != nil {
		fn(arg)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// exactly deadline (even if no event was scheduled there). Events scheduled
// later remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for {
		if at, ok := e.next(); !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// RunUntilDone executes events until cond reports true or virtual time
// would pass deadline, and returns cond's final value. When cond never
// becomes true the clock is left at deadline, so a failed wait consumes
// exactly its timeout — the primitive behind the scenario engine's
// wait_-style actions.
func (e *Engine) RunUntilDone(cond func() bool, deadline Time) bool {
	for {
		if cond() {
			return true
		}
		if at, ok := e.next(); !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return cond()
}

// Pending returns the number of events yet to fire, parked ones included.
// Cancelled events leave the queue immediately, so this is a live count,
// maintained in O(1).
func (e *Engine) Pending() int { return e.live }

// next returns the time of the next event to fire, if any.
func (e *Engine) next() (Time, bool) {
	switch {
	case e.runLen > 0:
		return e.arena[e.run[e.runHead&runMask]].at, true
	case len(e.heap) > 0:
		return e.arena[e.heap[0]].at, true
	}
	return 0, false
}

// --- the run: a sorted ring in front of the heap ---
//
// The queue depths the repository benchmark observes (mean / max pending)
// are 9.3 / 16 on the flow-fidelity collective, 26.4 / 28 on the
// packet-fidelity one and 6.5 / 26 over the bundled scenarios, against
// 104.5 / 1 002 and 1 465 / 10 001 in the control-plane workloads. A short
// sorted array is the cheapest queue for the first three: nearly every
// post is the latest or near-latest pending event, so scanning in from the
// tail stops after a compare or two, and a pop is a read and an
// increment, where the heap walks log2(depth) levels of dependent loads.
// It is no queue for the last two, where a post lands anywhere among
// thousands, so the run holds at most runCap events and the heap keeps the
// rest: the bottom rung of a ladder queue (Tang, Goh & Thng, ACM TOMACS
// 2005) with the heap as every rung above it.
//
// Invariant: the run is sorted and every entry sorts before the heap's
// root. A post that sorts after the root, or after a full run's tail, goes
// to the heap; any other enters the run, and a full run evicts its tail,
// which sorts before the old root and becomes the new one. Pops drain the
// run first, so under a deep queue the run is mostly empty and a post is
// one compare against the root away from the plain heap.

// runCap is the run's capacity: past the collectives' deepest queue (28),
// and short enough that a post landing mid-run moves at most 63 indexes.
const runCap = 64

const runMask = runCap - 1

// push queues slot idx, in the run or the heap as the invariant demands.
func (e *Engine) push(idx int32) {
	n := e.runLen
	if n == runCap {
		tail := e.run[(e.runHead+n-1)&runMask]
		if e.heapLess(tail, idx) {
			e.heapPush(idx)
			return
		}
		// idx sorts before the tail, which leaves for the heap: it sorts
		// before every heap entry, so it becomes the root.
		e.runLen, n = n-1, n-1
		e.heapPush(tail)
	} else if len(e.heap) > 0 && e.heapLess(e.heap[0], idx) {
		e.heapPush(idx)
		return
	}
	// Scan in from the tail, moving every later entry up one.
	a := e.arena
	at, seq := a[idx].at, a[idx].seq
	i := n
	for ; i > 0; i-- {
		p := e.run[(e.runHead+i-1)&runMask]
		pe := &a[p]
		if pe.at < at || (pe.at == at && pe.seq < seq) {
			break
		}
		e.run[(e.runHead+i)&runMask] = p
	}
	e.run[(e.runHead+i)&runMask] = idx
	a[idx].pos = inRun
	e.runLen++
}

// runRemove deletes slot idx from the run and closes the gap from the
// nearer end: the entries before it move up one, or those after it down.
func (e *Engine) runRemove(idx int32) {
	h, n := e.runHead, e.runLen
	i := uint32(0)
	for e.run[(h+i)&runMask] != idx {
		i++
	}
	if i < n/2 {
		for ; i > 0; i-- {
			e.run[(h+i)&runMask] = e.run[(h+i-1)&runMask]
		}
		e.runHead++
	} else {
		for ; i+1 < n; i++ {
			e.run[(h+i)&runMask] = e.run[(h+i+1)&runMask]
		}
	}
	e.runLen--
}

// --- binary heap of arena indexes ---
//
// The far tier: the events that sort after the run. A hand-rolled heap
// instead of container/heap: Push/Pop on the interface version box every
// element into an `any`, which is exactly the per-event allocation this
// engine exists to avoid. The order key is (at, seq), a
// strict total order because seq is unique per event, so the dispatch
// order is a property of the key alone: however the array is laid out
// between operations, the minimum popped is always the same event.
//
// What the layout does decide is host time. With thousands of timers
// pending (the control-plane workloads) a pop walks a dozen levels, and
// the textbook sift (two data-dependent compares and a swap per level)
// spends its time on mispredicted branches. So:
//
//   - sifts move a hole, not a swap: one heap write and one pos write per
//     level, the moving element written once at the end;
//   - a pop walks the hole from the root to a leaf along the smaller child
//     and sifts the displaced tail element up from there (Floyd's
//     bottom-up deletion: the tail came from a leaf and almost always
//     belongs near one, so this is one compare per level instead of two);
//   - the smaller child is picked without a branch: (at, seq) compared as
//     one 128-bit unsigned number, the borrow is the index offset.

// heapLess is the order predicate in its plain form; the sifts and the
// run's scan inline it, push's tests and the integrity audit call it.
func (e *Engine) heapLess(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp places slot idx at or above heap position i, moving the hole at i
// up past every ancestor that sorts after idx.
func (e *Engine) siftUp(i int, idx int32) {
	h, a := e.heap, e.arena
	at, seq := a[idx].at, a[idx].seq
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		pe := &a[p]
		if pe.at < at || (pe.at == at && pe.seq < seq) {
			break
		}
		h[i] = p
		pe.pos = int32(i)
		i = parent
	}
	h[i] = idx
	a[idx].pos = int32(i)
}

// sinkHole moves the hole at heap position i down to a leaf, pulling the
// smaller child up at every level, and returns the leaf's position. Event
// times are never negative (the clock starts at zero and scheduling before
// now panics), so comparing (at, seq) as a 128-bit unsigned number is the
// same order as heapLess: the subtraction right - left borrows exactly
// when the right child sorts first.
func (e *Engine) sinkHole(i int) int {
	h, a := e.heap, e.arena
	for {
		l := 2*i + 1
		if l+1 >= len(h) {
			if l < len(h) { // a last level with a left child only
				c := h[l]
				h[i] = c
				a[c].pos = int32(i)
				i = l
			}
			return i
		}
		el, er := &a[h[l]], &a[h[l+1]]
		_, borrow := bits.Sub64(er.seq, el.seq, 0)
		_, borrow = bits.Sub64(uint64(er.at), uint64(el.at), borrow)
		m := l + int(borrow)
		c := h[m]
		h[i] = c
		a[c].pos = int32(i)
		i = m
	}
}

func (e *Engine) heapPush(idx int32) {
	e.Heaped++
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap)-1, idx)
}

// heapRemove deletes and returns the element at heap position i (the root
// for a pop, anywhere for Cancel): the hole it leaves sinks to a leaf and
// the tail element sifts up from there, past i if it belongs above it.
func (e *Engine) heapRemove(i int) int32 {
	idx := e.heap[i]
	last := len(e.heap) - 1
	tail := e.heap[last]
	e.heap = e.heap[:last]
	if i < last {
		e.siftUp(e.sinkHole(i), tail)
	}
	return idx
}

// Jitter returns a duration drawn uniformly from [d*(1-frac), d*(1+frac)].
// It is the standard way simulated components add run-to-run variability.
func (e *Engine) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	lo := float64(d) * (1 - frac)
	hi := float64(d) * (1 + frac)
	return Duration(lo + e.rng.Float64()*(hi-lo))
}

// RunDrift draws one systemic per-run speed factor f ~ N(0, sigma²),
// clamped to ±3σ: a component scales its costs by 1±f once, when it is
// built, to model the run-to-run drift (clock, thermal, placement state)
// that per-event jitter alone would average away. sigma <= 0 draws nothing
// and returns 0.
func (e *Engine) RunDrift(sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	f := e.rng.NormFloat64() * sigma
	return max(-3*sigma, min(f, 3*sigma))
}
