package shsk8s

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/perfsuite"
	"github.com/caps-sim/shs-k8s/internal/sim"
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
// at flow fidelity, workload.Run bookkeeping included: 6 measured with
// go1.24's swiss maps and 6 with go1.22's map implementation
// (GOEXPERIMENT=noswissmap); 48 while each rank built an exchange per
// collective, 477 before collective rounds stopped allocating (112
// messages × 4 closures). The collective itself allocates nothing (each
// rank's round is built once, at mpi.Connect; internal/mpi's
// TestCollectivesAllocateNothing). What is left is the workload engine's
// run record and bound continuation, its report's copy of the link list,
// and this file's done closure with what it captures. A change that takes
// the count past the budget has put an allocation back on every message,
// round or collective; lower the budget when a change lowers the count.
const collectiveAllocBudget = 6

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
// ring allreduces at packet fidelity on a fresh benchmark stack. steps,
// elapsed and parked are what the tree read before a link's frames waited
// behind one another (sim.Lane) rather than in the event heap: lanes may
// change how many events sit in the heap, never which events run or when.
// allocs is what is left once no collective allocates (the workload
// engine's bookkeeping, as in collectiveAllocBudget). The heaped ones pin the engine's two-tier queue: at
// either fidelity the collectives never keep more events pending than the
// run in front of the heap holds, so no event enters the heap.
func TestPacketPathLanes(t *testing.T) {
	const (
		steps   = 36969  // engine steps, the stack's 8 set-up events included
		elapsed = 211000 // ns of virtual time for the two collectives
		allocs  = 6      // per run of two collectives, once warm (91 while each rank built an exchange per collective)
		// allocBytes is what the allocs weigh, per run of the least of
		// byteBatches batches of byteRuns warm runs; raceAllocBytes the
		// same under the race detector, which gives each tiny object a
		// 16-byte block of its own.
		allocBytes     = 1577
		raceAllocBytes = 1592
		byteRuns       = 64
		byteBatches    = 4
		parked         = 35000 // of the 35 840 host-link, trunk and egress-port arrivals

		heaped     = 0 // events that entered the heap, set-up included
		flowHeaped = 0 // the same for two collectives at flow fidelity
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
	if st.Eng.Heaped != heaped {
		t.Errorf("%d events entered the heap, want %d", st.Eng.Heaped, heaped)
	}
	t.Logf("%d steps, %d parked, %d heaped, %d ns", st.Eng.Steps, st.Eng.Parked, st.Eng.Heaped, rep.Elapsed)
	flowSt, flowComm, err := perfsuite.CollectivesStack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ringAllreduce(flowSt, flowComm, fabric.FidelityFlow, 2); err != nil {
		t.Fatal(err)
	}
	if flowSt.Eng.Heaped != flowHeaped {
		t.Errorf("%d events entered the heap at flow fidelity, want %d", flowSt.Eng.Heaped, flowHeaped)
	}
	run := func() {
		if _, err := ringAllreduce(st, comm, fabric.FidelityPacket, 2); err != nil {
			t.Fatal(err)
		}
	}
	run() // the first run grew the arena and the free lists; one more settles them
	got := testing.AllocsPerRun(10, run)
	t.Logf("%.0f allocations per run of two collectives (budget %d)", got, allocs)
	if got > allocs {
		t.Errorf("two packet-fidelity collectives allocate %.0f objects, want at most %d", got, allocs)
	}
	// What those objects weigh: the heap bytes of byteRuns warm runs ÷
	// byteRuns, rounded to the byte. Tiny objects share 16-byte blocks, so
	// a run's bytes are only exact on average, and another goroutine's
	// allocation can only add: the least of byteBatches batches is the
	// figure.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	perRun := math.Inf(1)
	for b := 0; b < byteBatches; b++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < byteRuns; i++ {
			run()
		}
		runtime.ReadMemStats(&ms)
		perRun = math.Min(perRun, math.Round(float64(ms.TotalAlloc-before)/byteRuns))
	}
	want := allocBytes
	if raceEnabled {
		want = raceAllocBytes
	}
	t.Logf("%.0f bytes per run of two collectives", perRun)
	if perRun != float64(want) {
		t.Errorf("two packet-fidelity collectives allocate %.0f bytes, want %d", perRun, want)
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

// fidelityProbeStack is the benchmark's allreduce stack — 8 ranks, 1 group
// × 4 switches × 2 nodes, frame coalescing off, one libfabric domain per
// rank — with or without per-packet jitter and per-run drift; without, a
// message's time is arithmetic.
func fidelityProbeStack(t *testing.T, jitter bool) (*stack.Stack, *mpi.Comm) {
	t.Helper()
	const ranks = 8
	opts := stack.DefaultOptions()
	opts.Nodes = ranks
	opts.Topology = fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 4, NodesPerSwitch: 2}
	opts.Device.CoalesceFrames = false
	if !jitter {
		opts.Fabric.JitterFrac, opts.Fabric.RunSigma = 0, 0
	}
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

// TestFidelitySignature holds the two fidelities to one model of a bulk
// message. A 128 KiB message is 64 frames; S is their serialisation on one
// 200 Gb/s stage, f one frame's. The route has two stages on one switch
// (host link, egress port) and three across switches (a trunk between).
// Net of the size-independent latency, measured on the same path with a
// 1-byte message, both pipeline the frames through the stages:
//
//	packet = flow = S + (stages-1)·f
//
// The flow path computes that in closed form (fabric's burst); the packet
// path runs it frame by frame. Before the flow path pipelined, it stored
// and forwarded the burst whole (stages·S), 2.4x the packet time across
// switches.
func TestFidelitySignature(t *testing.T) {
	st, comm := fidelityProbeStack(t, false)
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
		want := burst + (stages-1)*frame
		total := map[fabric.Fidelity]time.Duration{}
		for _, fid := range []fabric.Fidelity{fabric.FidelityPacket, fabric.FidelityFlow} {
			latency := oneWay(hop.src, hop.dst, 1, fid) - stages*wire(1, 1)
			total[fid] = oneWay(hop.src, hop.dst, size, fid)
			net := total[fid] - latency
			t.Logf("%s %s: %v = latency %v + %v on the wire (model %v)", hop.name, fid, total[fid], latency, net, want)
			if diff := (net - want).Abs(); diff > want/50 {
				t.Errorf("%s %s: %v on the wire, the model says %v (±2 %%)", hop.name, fid, net, want)
			}
		}
		ratio := float64(total[fabric.FidelityFlow]) / float64(total[fabric.FidelityPacket])
		t.Logf("%s: flow takes %.4fx packet", hop.name, ratio)
		if ratio < 1/1.02 || ratio > 1.02 {
			t.Errorf("%s: flow takes %.4fx packet, want within 2 %%", hop.name, ratio)
		}
	}
}

// TestRingAllreduceFidelitiesAgree is the differential test of the two
// fidelities on the repository benchmark's own collective: two 8-rank
// 1 MiB ring allreduces on fresh allreduce_packet / allreduce_flow stacks.
// Both move the closed-form byte volume (ringAllreduce checks it), and the
// benchmark's virt.allreduce_us agrees within 2 % with the fabric's jitter
// on and exactly with it off. Exactly, not to the nanosecond: the NIC's
// send and receive overheads keep their 2 % jitter, drawn in event order,
// and the two fidelities break ties between simultaneous events in
// different orders, which leaves the raw time a few nanoseconds apart.
func TestRingAllreduceFidelitiesAgree(t *testing.T) {
	for _, jitter := range []bool{true, false} {
		var elapsed, perCollectiveUs [2]float64
		for i, fid := range []fabric.Fidelity{fabric.FidelityPacket, fabric.FidelityFlow} {
			st, comm := fidelityProbeStack(t, jitter)
			rep, err := ringAllreduce(st, comm, fid, 2)
			if err != nil {
				t.Fatalf("%s: %v", fid, err)
			}
			elapsed[i] = float64(rep.Elapsed)
			perCollectiveUs[i] = float64(rep.Elapsed.Microseconds()) / 2 // as the benchmark reports it
		}
		ratio := elapsed[1] / elapsed[0]
		t.Logf("jitter %v: virt.allreduce_us %v at packet, %v at flow; %.0f vs %.0f ns (%.5fx)",
			jitter, perCollectiveUs[0], perCollectiveUs[1], elapsed[0], elapsed[1], ratio)
		switch {
		case jitter && (ratio < 1/1.02 || ratio > 1.02):
			t.Errorf("with jitter, flow takes %.4fx packet, want within 2 %%", ratio)
		case !jitter && (perCollectiveUs[0] != perCollectiveUs[1] || ratio < 0.9999 || ratio > 1.0001):
			t.Errorf("without fabric jitter, virt.allreduce_us %v vs %v (%.5fx), want equal",
				perCollectiveUs[0], perCollectiveUs[1], ratio)
		}
	}
}
