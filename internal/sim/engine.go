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
// heap shrinks immediately), so heavy cancellation leaves no tombstones for
// the dispatch loop to skim.
func (h Event) Cancel() {
	e := h.eng
	if e == nil {
		return
	}
	ev := &e.arena[h.idx]
	if ev.gen != h.gen || ev.pos < 0 {
		return // fired, cancelled, or slot recycled since
	}
	e.heapRemove(int(ev.pos))
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
	if ev.gen != h.gen || ev.pos < 0 {
		return 0
	}
	return ev.at
}

// event is one arena slot. Slots are addressed by index so the backing
// array can grow without invalidating handles, and carry a generation
// bumped on every release so stale handles cannot alias a reused slot.
//
// A slot is in one of three states: free (on the free list), queued (in
// the heap, pos ≥ 0) or parked (pos == parked: a Lane post waiting behind
// its lane's previous event, reachable only through that event's next).
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
	pos  int32 // position in the heap; unqueued or parked when negative
	gen  uint32
	next int32 // the slot parked behind this one, -1 when none (see Lane)
}

// Negative values of event.pos.
const (
	unqueued int32 = -1 // free, or between alloc and push
	parked   int32 = -2 // waiting on a predecessor's next, in neither heap nor free list
)

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
// zero heap allocations regardless of length. The priority queue is a
// hand-rolled binary heap of arena indexes — no interface boxing on
// push/pop, hole-based sifts, bottom-up deletion with a branch-free child
// pick (see the heap section below) — ordered by (time, sequence), so
// events at the same instant run in FIFO order exactly as they always have.
// Events posted through a Lane carry the same key but may wait outside the
// heap, parked behind the lane's previous event, until that one fires.
type Engine struct {
	now   Time
	arena []event
	free  []int32 // recycled arena slots, LIFO
	heap  []int32 // binary heap of queued slots, ordered by (at, seq)
	seq   uint64
	live  int // queued and parked events; Pending() reads this in O(1)
	rng   *rand.Rand
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
	// instead of entering the heap: the share of Steps the queue served by
	// replacing its root rather than by a push and a pop.
	Parked uint64
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
// heap, or, for a post through lane l whose newest event is still pending
// and not later than t, parked behind that event (see Lane).
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
	e.heapPush(idx)
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
	if len(e.heap) == 0 {
		return false
	}
	idx := e.heap[0]
	ev := &e.arena[idx]
	if nx := ev.next; nx >= 0 {
		// The lane's next event takes the root's place and sinks from
		// there: one sift instead of a pop now and a push later.
		ev.next = -1
		e.siftDown(0, nx)
	} else {
		e.heapRemove(0)
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
	for len(e.heap) > 0 && e.arena[e.heap[0]].at <= deadline {
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
		if len(e.heap) == 0 || e.arena[e.heap[0]].at > deadline {
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

// --- binary heap of arena indexes ---
//
// A hand-rolled heap instead of container/heap: Push/Pop on the interface
// version box every element into an `any`, which is exactly the per-event
// allocation this engine exists to avoid. The order key is (at, seq), a
// strict total order because seq is unique per event, so the dispatch
// order is a property of the key alone: however the array is laid out
// between operations, the minimum popped is always the same event.
//
// What the layout does decide is host time. At packet fidelity a pop walks
// ~8 levels with hundreds of events pending, and the textbook sift (two
// data-dependent compares and a swap per level) spends its time on
// mispredicted branches. So:
//
//   - sifts move a hole, not a swap: one heap write and one pos write per
//     level, the moving element written once at the end;
//   - a pop walks the hole from the root to a leaf along the smaller child
//     and sifts the displaced tail element up from there (Floyd's
//     bottom-up deletion: the tail came from a leaf and almost always
//     belongs near one, so this is one compare per level instead of two);
//   - the smaller child is picked without a branch: (at, seq) compared as
//     one 128-bit unsigned number, the borrow is the index offset.

// heapLess is the order predicate in its plain form; the sifts below inline
// it, the integrity audit calls it.
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

// siftDown places slot idx at or below heap position i, moving the hole at
// i down past every child that sorts before idx. It serves the promotion
// of a parked event into the root its predecessor vacates: the heap's size
// does not change, and with one entry per busy lane it is a shallow one.
func (e *Engine) siftDown(i int, idx int32) {
	h, a := e.heap, e.arena
	at, seq := a[idx].at, a[idx].seq
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if m+1 < len(h) {
			el, er := &a[h[m]], &a[h[m+1]]
			_, borrow := bits.Sub64(er.seq, el.seq, 0)
			_, borrow = bits.Sub64(uint64(er.at), uint64(el.at), borrow)
			m += int(borrow)
		}
		c := h[m]
		ce := &a[c]
		if at < ce.at || (at == ce.at && seq < ce.seq) {
			break
		}
		h[i] = c
		ce.pos = int32(i)
		i = m
	}
	h[i] = idx
	a[idx].pos = int32(i)
}

func (e *Engine) heapPush(idx int32) {
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

// Normal returns a normally distributed duration with the given mean and
// standard deviation, clamped at zero.
func (e *Engine) Normal(mean, stddev Duration) Duration {
	v := float64(mean) + e.rng.NormFloat64()*float64(stddev)
	if v < 0 {
		v = 0
	}
	return Duration(v)
}
