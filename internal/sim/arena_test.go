package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// TestEventSlotSize pins the arena slot at 56 bytes. The arena is the
// engine's one large allocation: a control-plane run with thousands of
// pending events pays for every byte of a slot in alloc_mb_per_iter, and a
// field that pushes the struct to 64 shows there, not in any sim test.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Errorf("event slot is %d bytes, want 56", got)
	}
}

// TestArenaCancelThenReuseAliasing is the aliasing hazard the generation
// counter exists for: cancel an event, let its arena slot be recycled by a
// new event, then cancel through the stale handle again. The second cancel
// must be a no-op against the slot's new occupant.
func TestArenaCancelThenReuseAliasing(t *testing.T) {
	e := NewEngine(1)
	aRan, bRan := false, false
	a := e.After(time.Second, func() { aRan = true })
	a.Cancel()
	// The freed slot is top of the free list, so b recycles a's storage.
	b := e.After(time.Second, func() { bRan = true })
	if a.idx != b.idx {
		t.Fatalf("slot not recycled: a.idx=%d b.idx=%d", a.idx, b.idx)
	}
	a.Cancel() // stale: must not touch b
	a.Cancel() // and idempotent
	e.Run()
	if aRan {
		t.Error("cancelled event ran")
	}
	if !bRan {
		t.Error("slot reuse let a stale Cancel kill the new event")
	}
}

// TestArenaStaleHandleAfterFire covers the same hazard for fired events: a
// handle kept past firing must not cancel the slot's next occupant.
func TestArenaStaleHandleAfterFire(t *testing.T) {
	e := NewEngine(1)
	a := e.After(time.Second, func() {})
	e.Run()
	ran := false
	b := e.After(time.Second, func() { ran = true })
	if a.idx != b.idx {
		t.Fatalf("slot not recycled: a.idx=%d b.idx=%d", a.idx, b.idx)
	}
	a.Cancel()
	if a.At() != 0 {
		t.Errorf("stale handle At() = %v, want 0", a.At())
	}
	if b.At() != Time(2*time.Second) {
		t.Errorf("live handle At() = %v, want 2s", b.At())
	}
	e.Run()
	if !ran {
		t.Error("stale handle cancelled the reused slot's event")
	}
}

// TestZeroEventIsInert: the zero handle must be safe to Cancel.
func TestZeroEventIsInert(t *testing.T) {
	var ev Event
	ev.Cancel()
	if ev.At() != 0 {
		t.Errorf("zero event At() = %v", ev.At())
	}
}

// TestCancelRemovesFromHeapImmediately asserts eager removal: no tombstones
// remain queued after Cancel, and Pending reflects that in O(1). The 100
// events fill the run and overflow into the heap, so both tiers lose half.
func TestCancelRemovesFromHeapImmediately(t *testing.T) {
	e := NewEngine(1)
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.After(Duration(i)*time.Millisecond, func() {}))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Cancel()
	}
	if run, heap := int(e.runLen), len(e.heap); run != runCap/2 || heap != 50-runCap/2 {
		t.Errorf("run and heap hold %d and %d entries after cancelling half, want %d and %d (eager removal)",
			run, heap, runCap/2, 50-runCap/2)
	}
	if got := e.Pending(); got != 50 {
		t.Errorf("Pending() = %d, want 50", got)
	}
	if got := len(e.free); got != 50 {
		t.Errorf("free list holds %d slots, want 50", got)
	}
	e.Run()
	if e.Steps != 50 {
		t.Errorf("Steps = %d, want 50", e.Steps)
	}
}

// TestRunUntilDoneWithCancelledHead: cancelling the earliest event must not
// confuse the deadline scan — the next live event drives the wait.
func TestRunUntilDoneWithCancelledHead(t *testing.T) {
	e := NewEngine(1)
	head := e.After(time.Second, func() { t.Error("cancelled head ran") })
	done := false
	e.After(2*time.Second, func() { done = true })
	head.Cancel()
	if !e.RunUntilDone(func() bool { return done }, Time(10*time.Second)) {
		t.Fatal("condition never held")
	}
	if e.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s (the live event's time)", e.Now())
	}
}

// TestRunUntilWithCancelledHead: same for the deadline variant, including a
// cancelled head that sits exactly on the deadline.
func TestRunUntilWithCancelledHead(t *testing.T) {
	e := NewEngine(1)
	head := e.After(time.Second, func() { t.Error("cancelled head ran") })
	ran := false
	e.After(3*time.Second, func() { ran = true })
	head.Cancel()
	e.RunUntil(Time(time.Second))
	if ran {
		t.Error("later event ran before its time")
	}
	if e.Now() != Time(time.Second) {
		t.Errorf("clock = %v, want deadline 1s", e.Now())
	}
	e.Run()
	if !ran {
		t.Error("live event lost")
	}
}

// TestArenaGrowthAndReuse: the arena grows only to the peak number of
// simultaneously queued events; steady-state scheduling recycles slots
// instead of growing.
func TestArenaGrowthAndReuse(t *testing.T) {
	e := NewEngine(1)
	const peak = 1000
	for i := 0; i < peak; i++ {
		e.After(Duration(i)*time.Microsecond, func() {})
	}
	if len(e.arena) != peak {
		t.Fatalf("arena = %d slots at peak, want %d", len(e.arena), peak)
	}
	e.Run()
	// Steady state: one event in flight at a time, many times over.
	for i := 0; i < 10*peak; i++ {
		e.After(time.Microsecond, func() {})
		e.Run()
	}
	if len(e.arena) != peak {
		t.Errorf("arena grew to %d slots in steady state, want to stay at %d (free-list reuse)", len(e.arena), peak)
	}
	if e.Steps != 11*peak {
		t.Errorf("Steps = %d, want %d", e.Steps, 11*peak)
	}
}

// TestArenaDeterminismUnderChurn runs a randomized schedule/cancel/reschedule
// workload — heavy slot reuse, nested scheduling, same-instant FIFO — twice
// and asserts the fire sequence and step counts are identical. This is the
// engine-level form of the scenario determinism contract: pooling must not
// perturb dispatch order.
func TestArenaDeterminismUnderChurn(t *testing.T) {
	run := func() ([]int, uint64) {
		e := NewEngine(7)
		r := rand.New(rand.NewSource(99)) // workload shape, not engine RNG
		var fired []int
		var evs []Event
		id := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := id
			id++
			evs = append(evs, e.After(Duration(r.Intn(50))*time.Microsecond, func() {
				fired = append(fired, n)
				if depth < 3 && r.Intn(2) == 0 {
					schedule(depth + 1)
				}
			}))
		}
		for i := 0; i < 200; i++ {
			schedule(0)
			if r.Intn(3) == 0 && len(evs) > 0 {
				evs[r.Intn(len(evs))].Cancel()
			}
		}
		e.Run()
		return fired, e.Steps
	}
	f1, s1 := run()
	f2, s2 := run()
	if s1 != s2 {
		t.Fatalf("step counts differ: %d vs %d", s1, s2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("fire counts differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fire order diverged at %d: %d vs %d", i, f1[i], f2[i])
		}
	}
}

// TestAtCallAvoidsClosureAllocation: the AtCall/AfterCall path — a shared
// top-level function plus an explicit argument — must schedule and dispatch
// without allocating.
func TestAtCallAvoidsClosureAllocation(t *testing.T) {
	e := NewEngine(1)
	hits := 0
	fn := func(arg any) { *(arg.(*int))++ }
	// Warm the arena so the measured loop is pure steady state.
	e.AfterCall(0, fn, &hits)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterCall(time.Microsecond, fn, &hits)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state AfterCall+Run allocates %.1f objects/op, want 0", allocs)
	}
	if hits == 0 {
		t.Error("callback never ran")
	}
}

// TestCancelHeavyAvoidsAllocation: schedule 64 events, cancel every other
// one, drain — the shape of the Engine_CancelHeavy benchmark — allocates
// nothing once the arena has grown: a cancelled slot goes straight back to
// the free list and is the next one handed out.
func TestCancelHeavyAvoidsAllocation(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	const k = 64
	evs := make([]Event, k)
	round := func() {
		for j := 0; j < k; j++ {
			evs[j] = e.After(time.Duration(j)*time.Microsecond, fn)
		}
		for j := 0; j < k; j += 2 {
			evs[j].Cancel()
		}
		e.Run()
	}
	round() // grow the arena and the heap to 64 slots
	fired = 0
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("schedule-64 / cancel-half / drain allocates %.1f objects/op, want 0", allocs)
	}
	if want := 101 * k / 2; fired != want { // AllocsPerRun adds one warm-up run
		t.Errorf("%d callbacks ran, want %d (the uncancelled half of every round)", fired, want)
	}
	if err := e.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}
