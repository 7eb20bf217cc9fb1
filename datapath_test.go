package shsk8s

import (
	"fmt"
	"sync"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/perfsuite"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// ringAllreduce runs n back-to-back 8-rank 1 MiB ring allreduces on a
// perfsuite.CollectivesStack to completion and checks the byte volume
// against the closed form.
func ringAllreduce(st *stack.Stack, comm *mpi.Comm, fid fabric.Fidelity, n int) (workload.Report, error) {
	const bytes = 1 << 20
	spec := workload.Spec{Pattern: workload.AllreduceRing, Bytes: bytes, Iterations: n, Fidelity: fid}
	var rep workload.Report
	finished := false
	if err := workload.Run(st.Eng, comm, st.Topo, spec, func(r workload.Report) { rep, finished = r, true }); err != nil {
		return rep, err
	}
	st.Eng.Run()
	if !finished {
		return rep, fmt.Errorf("collective never completed")
	}
	if want := uint64(n) * mpi.AllreduceRingBytes(comm.Size(), bytes); rep.MPIBytes != want {
		return rep, fmt.Errorf("allreduce moved %d bytes, want %d", rep.MPIBytes, want)
	}
	return rep, nil
}

// collectiveAllocBudget bounds the allocations of one 8-rank ring allreduce
// at flow fidelity, workload.Run bookkeeping included: 49 measured, 477
// before collective rounds stopped allocating (112 messages × 4 closures).
// What is left is per collective, not per message: each rank's exchange
// with its three closures and round counter, and the workload engine's
// report. A change that takes the count past the budget has put an
// allocation back on every message or every round; lower the budget when
// a change lowers the count.
const collectiveAllocBudget = 52

// TestCollectiveAllocBudget is the data-path perf gate that cannot flake:
// a count, never the clock. The event arguments come from free lists owned
// by the switch, topology, NIC and communicator rather than from
// sync.Pools, so the count does not depend on when the collector runs, nor
// on the race detector.
func TestCollectiveAllocBudget(t *testing.T) {
	st, comm, err := perfsuite.CollectivesStack()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := ringAllreduce(st, comm, fabric.FidelityFlow, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // fill the free lists, the event arena and the matching queues
	}
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("%.0f allocations per collective (budget %d)", allocs, collectiveAllocBudget)
	if allocs > collectiveAllocBudget {
		t.Errorf("one ring allreduce allocates %.0f objects, budget %d", allocs, collectiveAllocBudget)
	}
}

// TestPacketPathLanes is the packet path's gate, counts only: two 1 MiB
// ring allreduces at packet fidelity on a fresh benchmark stack. The
// constants are what the tree read before a link's frames waited behind one
// another (sim.Lane) rather than in the event heap: lanes may change how
// many events sit in the heap, never which events run, when, or what they
// allocate.
func TestPacketPathLanes(t *testing.T) {
	const (
		steps   = 36969  // engine steps, the stack's 8 set-up events included
		elapsed = 211000 // ns of virtual time for the two collectives
		allocs  = 91     // per run of two collectives, once warm
		parked  = 35000  // of the 35 840 host-link, trunk and egress-port arrivals
	)
	st, comm, err := perfsuite.CollectivesStack()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ringAllreduce(st, comm, fabric.FidelityPacket, 2) // checks the byte volume
	if err != nil {
		t.Fatal(err)
	}
	if st.Eng.Steps != steps || st.Eng.Elided != 0 {
		t.Errorf("ran %d events (%d elided), want %d and none", st.Eng.Steps, st.Eng.Elided, steps)
	}
	if rep.Elapsed != elapsed {
		t.Errorf("two collectives took %d ns of virtual time, want %d", rep.Elapsed, elapsed)
	}
	if st.Eng.Parked < parked {
		t.Errorf("%d events parked behind their link's previous frame, want at least %d", st.Eng.Parked, parked)
	}
	t.Logf("%d steps, %d parked, %d ns", st.Eng.Steps, st.Eng.Parked, rep.Elapsed)
	run := func() {
		if _, err := ringAllreduce(st, comm, fabric.FidelityPacket, 2); err != nil {
			t.Fatal(err)
		}
	}
	run() // the first run grew the arena and the free lists; one more settles them
	if got := testing.AllocsPerRun(10, run); got > allocs {
		t.Errorf("two packet-fidelity collectives allocate %.0f objects, want at most %d", got, allocs)
	}
}

// TestEnginesShareNoPoolState pins what keeps `shssim run -workers N` safe
// now that recycled event arguments live on plain, unsynchronised free
// lists: every list belongs to one stack's switch, topology, NIC or
// communicator, so two stacks on two goroutines touch disjoint memory. A
// list moved back to package level would be a data race here, which CI's
// `go test -race ./...` reports. Same seed, so the two must also agree.
func TestEnginesShareNoPoolState(t *testing.T) {
	var wg sync.WaitGroup
	var reps [2]workload.Report
	var errs [2]error
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, comm, err := perfsuite.CollectivesStack()
			if err != nil {
				errs[i] = err
				return
			}
			reps[i], errs[i] = ringAllreduce(st, comm, fabric.FidelityPacket, 2)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stack %d: %v", i, err)
		}
	}
	if reps[0] != reps[1] {
		t.Errorf("same-seed stacks on two goroutines disagree:\n%+v\n%+v", reps[0], reps[1])
	}
}
