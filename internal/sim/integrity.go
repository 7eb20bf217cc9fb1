package sim

import "fmt"

// CheckIntegrity audits the engine's internal bookkeeping and returns the
// first inconsistency found, or nil. It verifies the structural invariants
// the pooled arena, the run, the hand-rolled heap and the lanes rely on:
//
//   - the live counter (what Pending reports) equals the run's length plus
//     the heap size plus the number of parked events;
//   - the run holds at most runCap slots, each marked inRun, in strictly
//     increasing (at, seq) order, the last before the heap's root;
//   - every heap entry points at an arena slot whose recorded position
//     matches its heap index (the Cancel fast path depends on this);
//   - no queued event is scheduled before the current virtual time, so the
//     clock can only move forward;
//   - the heap order property holds at every node;
//   - every chain hanging off a run or heap slot through next ends, visits
//     only slots marked parked, and never steps backwards in (at, seq) — so
//     the run's head (the heap's root when the run is empty) is the
//     earliest event of all, parked ones included;
//   - every free-list slot is marked unqueued, carries no next, and
//     appears once;
//   - run, heap, chains and free list partition the arena exactly — no
//     slot is in two of them, none is leaked.
//
// The walk is O(arena), so it is meant for harnesses (the scenario fuzzer
// runs it after every event and at end of run), not for per-event use.
func (e *Engine) CheckIntegrity() error {
	const (
		inHeap = iota + 1
		inChain
		inFree
		inRunList
	)
	seen := make([]uint8, len(e.arena))
	claim := func(idx int32, as uint8, where string) error {
		if idx < 0 || int(idx) >= len(e.arena) {
			return fmt.Errorf("sim: integrity: %s holds out-of-range slot %d (arena %d)", where, idx, len(e.arena))
		}
		if seen[idx] != 0 {
			return fmt.Errorf("sim: integrity: slot %d reached twice (%s, and already %s)",
				idx, where, [...]string{inHeap: "in the heap", inChain: "parked", inFree: "free", inRunList: "in the run"}[seen[idx]])
		}
		seen[idx] = as
		return nil
	}
	if e.runLen > runCap {
		return fmt.Errorf("sim: integrity: run holds %d slots, capacity %d", e.runLen, runCap)
	}
	run := make([]int32, e.runLen)
	for i := range run {
		idx := e.run[(e.runHead+uint32(i))&runMask]
		if err := claim(idx, inRunList, fmt.Sprintf("run[%d]", i)); err != nil {
			return err
		}
		run[i] = idx
		ev := &e.arena[idx]
		if ev.pos != inRun {
			return fmt.Errorf("sim: integrity: slot %d at run[%d] records pos %d, not the run's", idx, i, ev.pos)
		}
		if ev.at < e.now {
			return fmt.Errorf("sim: integrity: queued event at %v is before now %v (clock would run backwards)", ev.at, e.now)
		}
		if i > 0 && !e.heapLess(run[i-1], idx) {
			return fmt.Errorf("sim: integrity: run out of order at %d (slot %d does not sort after slot %d)", i, idx, run[i-1])
		}
	}
	if len(run) > 0 && len(e.heap) > 0 && !e.heapLess(run[len(run)-1], e.heap[0]) {
		return fmt.Errorf("sim: integrity: run's last slot %d does not sort before the heap's root %d", run[len(run)-1], e.heap[0])
	}
	for i, idx := range e.heap {
		if err := claim(idx, inHeap, fmt.Sprintf("heap[%d]", i)); err != nil {
			return err
		}
		ev := &e.arena[idx]
		if ev.pos != int32(i) {
			return fmt.Errorf("sim: integrity: slot %d at heap[%d] records pos %d", idx, i, ev.pos)
		}
		if ev.at < e.now {
			return fmt.Errorf("sim: integrity: queued event at %v is before now %v (clock would run backwards)", ev.at, e.now)
		}
		if i > 0 {
			parent := e.heap[(i-1)/2]
			if e.heapLess(idx, parent) {
				return fmt.Errorf("sim: integrity: heap order violated at index %d (slot %d sorts before its parent %d)", i, idx, parent)
			}
		}
	}
	nParked := 0
	for _, head := range append(run, e.heap...) {
		for prev, idx := head, e.arena[head].next; idx >= 0; prev, idx = idx, e.arena[idx].next {
			if err := claim(idx, inChain, fmt.Sprintf("next of slot %d", prev)); err != nil {
				return err
			}
			if e.arena[idx].pos != parked {
				return fmt.Errorf("sim: integrity: slot %d hangs off slot %d but records pos %d", idx, prev, e.arena[idx].pos)
			}
			if e.heapLess(idx, prev) {
				return fmt.Errorf("sim: integrity: parked slot %d sorts before its predecessor %d", idx, prev)
			}
			nParked++
		}
	}
	if e.live != len(run)+len(e.heap)+nParked {
		return fmt.Errorf("sim: integrity: live counter %d != %d in the run + %d in the heap + %d parked events",
			e.live, len(run), len(e.heap), nParked)
	}
	for _, idx := range e.free {
		if err := claim(idx, inFree, "free list"); err != nil {
			return err
		}
		if ev := &e.arena[idx]; ev.pos != unqueued || ev.next >= 0 {
			return fmt.Errorf("sim: integrity: free slot %d still records heap pos %d, next %d", idx, ev.pos, ev.next)
		}
	}
	if n := len(run) + len(e.heap) + nParked + len(e.free); n != len(e.arena) {
		return fmt.Errorf("sim: integrity: %d slot(s) leaked (arena %d, run %d, heap %d, parked %d, free %d)",
			len(e.arena)-n, len(e.arena), len(run), len(e.heap), nParked, len(e.free))
	}
	return nil
}
