package shsk8s

import (
	"fmt"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"sync"
	"testing"
	"time"

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
// at flow fidelity, workload.Run bookkeeping included: 48 measured, 477
// before collective rounds stopped allocating (112 messages × 4 closures).
// What is left is per collective, not per message: each rank's exchange
// with its three closures and round counter, and the workload engine's
// report. A change that takes the count past the budget has put an
// allocation back on every message or every round; lower the budget when
// a change lowers the count.
const collectiveAllocBudget = 51

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

// fidelityProbeStack is the perfsuite.CollectivesStack shape — 8 ranks, 1
// group × 4 switches × 2 nodes, frame coalescing off — on a fabric without
// per-packet jitter or per-run drift, so a message's time is arithmetic.
func fidelityProbeStack(t *testing.T) (*stack.Stack, *mpi.Comm) {
	t.Helper()
	const ranks = 8
	opts := stack.DefaultOptions()
	opts.Nodes = ranks
	opts.Topology = fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 4, NodesPerSwitch: 2}
	opts.Device.CoalesceFrames = false
	opts.Fabric.JitterFrac, opts.Fabric.RunSigma = 0, 0
	st := stack.New(opts)
	st.Eng.RunFor(time.Second)
	var doms []*libfabric.Domain
	for n := 0; n < ranks; n++ {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("probe-rank%d", n), 1000, 1000, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: st.Nodes[n].Device, Caller: proc.PID, VNI: 1, TC: fabric.TCBulkData})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		t.Fatal(err)
	}
	return st, comm
}

// TestFidelitySignature characterises the disagreement between the two
// fidelities on one bulk message (ROADMAP item 1) as it stands today, so the
// PR that closes it starts from a confirmed signature and flips the flow
// assertion. A 128 KiB message is 64 frames; S is their serialisation on
// one 200 Gb/s stage, f one frame's. The route has two stages on one switch
// (host link, egress port) and three across switches (a trunk between).
// Net of the size-independent latency, measured on the same path with a
// 1-byte message:
//
//	packet = S + (stages-1)·f   frames pipeline through the stages
//	flow   = stages·S           the burst is stored and forwarded whole
//
// which on the cross-switch hop is 2.9x net and 2.4x with the ~2 µs of
// latency in: the reviewer's hypothesis, confirmed for one message. (The
// ring allreduce's 218.25 / 105.5 µs = 2.07x is over 14 dependent steps
// and is not decomposed here.)
func TestFidelitySignature(t *testing.T) {
	st, comm := fidelityProbeStack(t)
	cfg := st.Topo.Switches()[0].Config()
	wire := func(payload, frames int) time.Duration {
		bits := float64(payload+frames*cfg.FrameHeaderBytes) * 8
		return time.Duration(bits / cfg.LinkBandwidthBits * float64(time.Second))
	}
	const size = 128 << 10
	burst, frame := wire(size, size/cfg.MTU), wire(cfg.MTU, 1)
	t.Logf("per stage: 128 KiB burst %v, one frame %v", burst, frame)

	oneWay := func(src, dst, bytes int, fid fabric.Fidelity) time.Duration {
		comm.SetFidelity(fid)
		start, arrived := st.Eng.Now(), sim.Time(0)
		comm.Ranks[dst].RecvFrom(src, func(int) { arrived = st.Eng.Now() })
		comm.Ranks[src].SendTo(dst, bytes, nil)
		st.Eng.Run()
		return time.Duration(arrived.Sub(start))
	}
	for _, hop := range []struct {
		name             string
		src, dst, stages int
	}{{"same-switch", 0, 1, 2}, {"cross-switch", 0, 2, 3}} {
		if same := st.Nodes[hop.src].SwitchIndex == st.Nodes[hop.dst].SwitchIndex; same != (hop.stages == 2) {
			t.Fatalf("%s: nodes %d and %d are not placed that way", hop.name, hop.src, hop.dst)
		}
		stages := time.Duration(hop.stages)
		want := map[fabric.Fidelity]time.Duration{
			fabric.FidelityPacket: burst + (stages-1)*frame,
			fabric.FidelityFlow:   stages * burst,
		}
		total := map[fabric.Fidelity]time.Duration{}
		for _, fid := range []fabric.Fidelity{fabric.FidelityPacket, fabric.FidelityFlow} {
			latency := oneWay(hop.src, hop.dst, 1, fid) - stages*wire(1, 1)
			total[fid] = oneWay(hop.src, hop.dst, size, fid)
			net := total[fid] - latency
			t.Logf("%s %s: %v = latency %v + %v on the wire (model %v)", hop.name, fid, total[fid], latency, net, want[fid])
			if diff := (net - want[fid]).Abs(); diff > want[fid]/50 {
				t.Errorf("%s %s: %v on the wire, the model says %v (±2 %%)", hop.name, fid, net, want[fid])
			}
		}
		ratio := float64(total[fabric.FidelityFlow]) / float64(total[fabric.FidelityPacket])
		t.Logf("%s: flow takes %.2fx packet", hop.name, ratio)
		if hop.stages == 3 && (ratio < 2.2 || ratio > 2.6) {
			t.Errorf("cross-switch flow takes %.2fx packet, signature is 2.4x", ratio)
		}
	}
}
