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
	fired []firing // in the order the engine ran them
	stale []Event
	// respawn marks events whose callback schedules a follow-up at the
	// same instant: a tie created from inside the dispatch loop, into the
	// slot the firing event just released. A lane event's follow-up goes
	// to its own lane.
	respawn map[int]bool
	// lanes are the posting points of lane events; laneAt is the time of
	// each one's newest post. With plain set, a lane post goes through
	// Engine.AtCall instead and everything else stays the same: the run
	// the lanes must be indistinguishable from.
	lanes  []Lane
	laneAt []Time
	plain  bool
}

// firing is what the outside can see of one dispatched event.
type firing struct {
	id    int
	now   Time
	steps uint64
}

// callback returns the body of event id; lane is the lane it was posted
// through, -1 for an ordinary event.
func (o *queueOracle) callback(id, lane int) func() {
	return func() {
		o.fired = append(o.fired, firing{id, o.eng.Now(), o.eng.Steps})
		if o.respawn[id] {
			delete(o.respawn, id)
			if lane >= 0 {
				o.post(lane, 0)
			} else {
				o.schedule(0, 0)
			}
		}
	}
}

func queueOracleCall(a any) { a.(func())() }

// schedule adds one event d after now through one of the four scheduling
// entry points and records it in both references.
func (o *queueOracle) schedule(d Duration, via int) {
	fn := o.callback(o.ids, -1)
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
	o.record(at, h)
}

// post adds one event through lane k. d is relative to the lane's newest
// post — the way a serialising link computes its arrivals — unless that
// lies in the past; a negative d asks for a time before the lane's tail,
// which the lane must take as an ordinary out-of-order event.
func (o *queueOracle) post(k int, d Duration) {
	at := o.laneAt[k].Add(d)
	if at < o.eng.now {
		at = o.eng.now
	}
	o.laneAt[k] = at
	fn := o.callback(o.ids, k)
	if o.plain {
		o.eng.AtCall(at, queueOracleCall, fn)
	} else {
		o.lanes[k].AtCall(at, queueOracleCall, fn)
	}
	// No handle in either mode: lane events are never cancelled.
	o.record(at, Event{})
}

func (o *queueOracle) record(at Time, h Event) {
	e := refEvent{at: at, seq: o.seq, id: o.ids, h: h}
	o.ids++
	o.seq++
	o.live[e.id] = e
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
// with refLess, the head of sorted() without the sort. With cancellable
// set it considers only events that have a handle.
func (o *queueOracle) pick(cancellable bool, less func(a, b *refEvent) bool) (best refEvent, ok bool) {
	for _, e := range o.live {
		e := e
		if cancellable && e.h.eng == nil {
			continue
		}
		if !ok || less(&e, &best) {
			best, ok = e, true
		}
	}
	return best, ok
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
	want, _ := o.pick(false, refLess)
	oldWant := o.old.remove(0)
	if !ran || len(o.fired) <= n {
		o.t.Fatalf("Step ran nothing with %d events live", len(o.live))
	}
	got := o.fired[n].id
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

// runQueueOracle drives ops random operations from seed against a fresh
// engine held near depth pending events, then drains it, auditing after
// every operation. With nLanes > 0 about half of the scheduling goes
// through lanes (or, with plain set, through Engine.AtCall in their
// place). Nothing the driver draws depends on the queue's layout unless
// nLanes is zero, so a lane run and its plain twin see the same script.
func runQueueOracle(t *testing.T, seed int64, depth, ops, nLanes int, plain bool) *queueOracle {
	o := &queueOracle{
		t: t, rng: rand.New(rand.NewSource(seed)), eng: NewEngine(1),
		live: map[int]refEvent{}, respawn: map[int]bool{},
		laneAt: make([]Time, nLanes), plain: plain,
	}
	for k := 0; k < nLanes; k++ {
		o.lanes = append(o.lanes, NewLane(o.eng))
	}
	steps, cancels := 0, 0
	for i := 0; i < ops; i++ {
		r := o.rng.Intn(100)
		switch {
		case i%4000 == 3999:
			// Let every lane run dry, so the next posts find a stale tail.
			for len(o.live) > 0 {
				o.step()
				steps++
				o.audit("drain")
			}
		case len(o.live) < depth && r < 55, len(o.live) == 0:
			if nLanes > 0 && o.rng.Intn(2) == 0 {
				// Mostly at or after the lane's tail, by a delay from a
				// small set with zero in it; now and then before it.
				d := Duration(o.rng.Intn(3)) * Duration(o.rng.Intn(3))
				if o.rng.Intn(8) == 0 {
					d = -Duration(o.rng.Intn(6) + 1)
				}
				o.post(o.rng.Intn(nLanes), d)
			} else {
				// Few distinct delays, zero among them: ties everywhere.
				o.schedule(Duration(o.rng.Intn(6))*Duration(o.rng.Intn(3)+1), o.rng.Intn(4))
			}
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
			ok := false
			switch c := o.rng.Intn(5); {
			case c == 0: // the root, or the earliest event that has a handle
				victim, ok = o.pick(true, refLess)
			case c == 1 && nLanes == 0: // the heap's tail slot
				tail := o.eng.heap[len(o.eng.heap)-1]
				victim, ok = o.pick(true, func(a, _ *refEvent) bool { return a.h.idx == tail })
			case c == 2: // the latest event: a leaf, wherever it sits
				victim, ok = o.pick(true, func(a, b *refEvent) bool { return refLess(b, a) })
			case c == 3: // a handle that already fired or was cancelled
				if len(o.stale) > 0 {
					o.stale[o.rng.Intn(len(o.stale))].Cancel()
					o.audit("stale cancel")
				}
				continue
			default:
				all := o.sorted()
				victim = all[o.rng.Intn(len(all))]
				ok = victim.h.eng != nil
			}
			if !ok {
				continue // only lane events are live
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
		if from+i >= len(o.fired) || o.fired[from+i].id != e.id {
			t.Fatalf("seed %d: drain position %d is not event %d", seed, i, e.id)
		}
	}
	if steps < ops/10 || cancels < ops/20 {
		t.Fatalf("seed %d: only %d steps and %d cancels in %d operations", seed, steps, cancels, ops)
	}
	t.Logf("seed %d: depth ~%d, %d lanes, %d events, %d steps, %d cancels, %d parked",
		seed, depth, nLanes, o.ids, steps, cancels, o.eng.Parked)
	return o
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
	for seed, depth := range []int{4, 24, 100, 300, 520} {
		runQueueOracle(t, int64(seed+1), depth, 20000, 0, false)
	}
}

// TestLanesMatchPlainScheduling is the lanes' differential test. The same
// random script runs twice: once posting through 1–16 lanes — times mostly
// at or after the lane's newest post and often equal to it, so order falls
// to seq; some before it, the fallback path; follow-ups posted from inside
// a firing lane event to its own lane; lanes left to drain and refilled —
// interleaved with ordinary scheduling, cancels and steps, and once with
// every lane post replaced by Engine.AtCall. The two runs must fire the
// same events at the same Now() and Steps, event for event; both are also
// held to the sorted reference and to CheckIntegrity, which audits the
// parked chains, after every operation.
func TestLanesMatchPlainScheduling(t *testing.T) {
	cases := []struct{ depth, lanes int }{{6, 1}, {24, 3}, {100, 8}, {300, 16}, {60, 2}}
	for i, c := range cases {
		seed := int64(i + 1)
		laned := runQueueOracle(t, seed, c.depth, 20000, c.lanes, false)
		plain := runQueueOracle(t, seed, c.depth, 20000, c.lanes, true)
		if plain.eng.Parked != 0 {
			t.Fatalf("seed %d: the plain run parked %d events", seed, plain.eng.Parked)
		}
		if laned.eng.Parked < uint64(laned.ids/8) {
			t.Errorf("seed %d: only %d of %d events parked: the script is not exercising the lanes", seed, laned.eng.Parked, laned.ids)
		}
		if len(laned.fired) != len(plain.fired) {
			t.Fatalf("seed %d: %d events fired through lanes, %d without", seed, len(laned.fired), len(plain.fired))
		}
		for j := range laned.fired {
			if laned.fired[j] != plain.fired[j] {
				t.Fatalf("seed %d: firing %d is %+v through lanes, %+v without", seed, j, laned.fired[j], plain.fired[j])
			}
		}
	}
}
