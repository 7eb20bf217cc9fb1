package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is the oracle's view of one live event. seq mirrors the engine's
// own counter: both advance by one per scheduling call, in lockstep.
type refEvent struct {
	at  Time
	seq uint64
	id  int
	h   Event
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// oldHeap is the queue the engine used before the hole-based, bottom-up,
// branch-free sifts: a binary heap of indexes into ev, ordered by
// (at, seq), every move a swap, siftDown comparing both children and then
// the parent at every level. It is kept here, verbatim in its logic, as the
// reference the new queue must agree with pop for pop.
type oldHeap struct {
	ev   []refEvent // by id
	pos  []int      // by id; -1 when not queued
	heap []int      // ids
}

func (q *oldHeap) less(a, b int) bool { return refLess(&q.ev[a], &q.ev[b]) }

func (q *oldHeap) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	q.pos[h[i]] = i
	q.pos[h[j]] = j
}

func (q *oldHeap) push(e refEvent) {
	for len(q.ev) <= e.id {
		q.ev = append(q.ev, refEvent{})
		q.pos = append(q.pos, -1)
	}
	q.ev[e.id] = e
	q.pos[e.id] = len(q.heap)
	q.heap = append(q.heap, e.id)
	q.siftUp(len(q.heap) - 1)
}

func (q *oldHeap) remove(i int) int {
	id := q.heap[i]
	last := len(q.heap) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap = q.heap[:last]
	if i < last {
		q.siftDown(i)
		q.siftUp(i)
	}
	q.pos[id] = -1
	return id
}

func (q *oldHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *oldHeap) siftDown(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			m = r
		}
		if !q.less(q.heap[m], q.heap[i]) {
			break
		}
		q.swap(i, m)
		i = m
	}
}

// queueOracle drives one engine and its two references through the same
// operations.
type queueOracle struct {
	t     *testing.T
	rng   *rand.Rand
	eng   *Engine
	old   oldHeap
	live  map[int]refEvent // the sort reference: every live event
	seq   uint64
	ids   int
	fired []int // ids in the order the engine ran them
	stale []Event
	// respawn marks events whose callback schedules a follow-up at the
	// same instant: a tie created from inside the dispatch loop, into the
	// slot the firing event just released.
	respawn map[int]bool
}

func (o *queueOracle) callback(id int) func() {
	return func() {
		o.fired = append(o.fired, id)
		if o.respawn[id] {
			delete(o.respawn, id)
			o.schedule(0, 0)
		}
	}
}

func queueOracleCall(a any) { a.(func())() }

// schedule adds one event d after now through one of the four scheduling
// entry points and records it in both references.
func (o *queueOracle) schedule(d Duration, via int) {
	id := o.ids
	o.ids++
	fn := o.callback(id)
	at := o.eng.now.Add(d)
	var h Event
	switch via % 4 {
	case 0:
		h = o.eng.At(at, fn)
	case 1:
		h = o.eng.After(d, fn)
	case 2:
		h = o.eng.AtCall(at, queueOracleCall, fn)
	default:
		h = o.eng.AfterCall(d, queueOracleCall, fn)
	}
	e := refEvent{at: at, seq: o.seq, id: id, h: h}
	o.seq++
	o.live[id] = e
	o.old.push(e)
}

// sorted returns the live events in dispatch order: the reference the
// engine's whole behaviour reduces to.
func (o *queueOracle) sorted() []refEvent {
	out := make([]refEvent, 0, len(o.live))
	for _, e := range o.live {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return refLess(&out[i], &out[j]) })
	return out
}

// pick returns the live event that sorts before every other under less:
// with refLess, the head of sorted() without the sort.
func (o *queueOracle) pick(less func(a, b *refEvent) bool) refEvent {
	var best refEvent
	for _, e := range o.live {
		e := e
		if best.h.eng == nil || less(&e, &best) {
			best = e
		}
	}
	return best
}

func (o *queueOracle) cancel(e refEvent) {
	e.h.Cancel()
	o.old.remove(o.old.pos[e.id])
	delete(o.live, e.id)
	o.stale = append(o.stale, e.h)
}

// step fires the next event and checks it against both references.
func (o *queueOracle) step() {
	n := len(o.fired)
	ran := o.eng.Step()
	if len(o.live) == 0 {
		if ran {
			o.t.Fatalf("Step ran an event with nothing live")
		}
		return
	}
	want := o.pick(refLess)
	oldWant := o.old.remove(0)
	if !ran || len(o.fired) <= n {
		o.t.Fatalf("Step ran nothing with %d events live", len(o.live))
	}
	got := o.fired[n]
	if got != want.id || oldWant != want.id {
		o.t.Fatalf("pop order diverged: engine ran event %d, sort says %d (at %v seq %d), old heap says %d",
			got, want.id, want.at, want.seq, oldWant)
	}
	if o.eng.Now() != want.at {
		o.t.Fatalf("clock at %v after event scheduled for %v", o.eng.Now(), want.at)
	}
	if want.h.At() != 0 {
		o.t.Fatalf("handle of fired event %d still reports At %v", want.id, want.h.At())
	}
	delete(o.live, want.id)
	o.stale = append(o.stale, want.h)
}

func (o *queueOracle) audit(op string) {
	if err := o.eng.CheckIntegrity(); err != nil {
		o.t.Fatalf("after %s: %v", op, err)
	}
	if o.eng.Pending() != len(o.live) || len(o.old.heap) != len(o.live) {
		o.t.Fatalf("after %s: engine has %d pending, old heap %d, reference %d",
			op, o.eng.Pending(), len(o.old.heap), len(o.live))
	}
}

// TestQueueMatchesSortedReference is the queue's differential test: random
// At/After/AtCall/AfterCall/Cancel/Step traffic — drawn from a handful of
// distinct instants so most compares are decided by seq, with cancels
// aimed at the heap's root, its tail and its middle as well as at fired
// and already-cancelled handles — against a reference that sorts the live
// events by (at, seq) and against the old swap-based heap. The engine must
// run exactly the events the reference names, in its order, and pass
// CheckIntegrity after every operation. Each seed holds the queue near a
// different depth: the shallow flow-fidelity regime, the few hundred
// pending events of a packet-fidelity collective, and deeper.
func TestQueueMatchesSortedReference(t *testing.T) {
	depths := []int{4, 24, 100, 300, 520}
	const ops = 20000
	for seed, depth := range depths {
		o := &queueOracle{
			t: t, rng: rand.New(rand.NewSource(int64(seed + 1))), eng: NewEngine(1),
			live: map[int]refEvent{}, respawn: map[int]bool{},
		}
		steps, cancels := 0, 0
		for i := 0; i < ops; i++ {
			r := o.rng.Intn(100)
			switch {
			case len(o.live) < depth && r < 55, len(o.live) == 0:
				// Few distinct delays, zero among them: ties everywhere.
				o.schedule(Duration(o.rng.Intn(6))*Duration(o.rng.Intn(3)+1), o.rng.Intn(4))
				if o.rng.Intn(8) == 0 {
					o.respawn[o.ids-1] = true
				}
				o.audit("schedule")
			case r < 80:
				o.step()
				steps++
				o.audit("step")
			default:
				var victim refEvent
				switch o.rng.Intn(5) {
				case 0: // the root
					victim = o.pick(refLess)
				case 1: // the heap's tail slot
					tail := o.eng.heap[len(o.eng.heap)-1]
					victim = o.pick(func(a, _ *refEvent) bool { return a.h.idx == tail })
				case 2: // the latest event: a leaf, wherever it sits
					victim = o.pick(func(a, b *refEvent) bool { return refLess(b, a) })
				case 3: // a handle that already fired or was cancelled
					if len(o.stale) > 0 {
						o.stale[o.rng.Intn(len(o.stale))].Cancel()
						o.audit("stale cancel")
					}
					continue
				default:
					victim = o.sorted()[o.rng.Intn(len(o.live))]
				}
				o.cancel(victim)
				cancels++
				o.audit("cancel")
			}
		}
		// Drain: what is left must come out in exactly sorted order.
		o.respawn = map[int]bool{}
		rest := o.sorted()
		from := len(o.fired)
		for len(o.live) > 0 {
			o.step()
			o.audit("drain")
		}
		for i, e := range rest {
			if from+i >= len(o.fired) || o.fired[from+i] != e.id {
				t.Fatalf("seed %d: drain position %d is not event %d", seed+1, i, e.id)
			}
		}
		if steps < ops/10 || cancels < ops/20 {
			t.Fatalf("seed %d: only %d steps and %d cancels in %d operations", seed+1, steps, cancels, ops)
		}
		t.Logf("seed %d: depth ~%d, %d events, %d steps, %d cancels", seed+1, depth, o.ids, steps, cancels)
	}
}
