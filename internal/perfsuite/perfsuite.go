// Package perfsuite holds the hot-path benchmark bodies, one implementation
// each, shared by the `go test -bench` wrappers (internal/sim,
// internal/fabric, internal/k8s) and by the repository benchmark's
// isolates (benchmarks/isolates.go), plus the collective stack the root
// module's allocation and engine-isolation tests drive. It measures nothing by itself: numbers come from
// `go test -bench` and from benchmarks/ (docs/performance.md).
package perfsuite

import (
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// EngineSchedule measures the event core's steady-state schedule+dispatch
// cost: one event scheduled and retired per op. With the pooled arena this
// is zero allocations.
func EngineSchedule(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	base := eng.Steps + eng.Elided
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Microsecond, fn)
		eng.Run()
	}
	reportEventRate(b, eng, base)
}

// EngineCancelHeavy measures the cancellation path: per op, schedule 64
// events, cancel every other one, then drain. Eager heap removal makes the
// cancelled half disappear immediately instead of tombstoning.
func EngineCancelHeavy(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	const k = 64
	evs := make([]sim.Event, k)
	base := eng.Steps + eng.Elided
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			evs[j] = eng.After(time.Duration(j)*time.Microsecond, fn)
		}
		for j := 0; j < k; j += 2 {
			evs[j].Cancel()
		}
		eng.Run()
	}
	reportEventRate(b, eng, base)
}

// fabricSink drops delivered packets; the cost under measurement is the
// fabric's, not a NIC model's.
type fabricSink struct{}

func (fabricSink) ReceivePacket(*fabric.Packet) {}

// FabricGroups returns the per-packet dragonfly forwarding benchmark for
// the given group count (2 switches per group, 2 endpoints per switch),
// driving an all-to-all stride that mixes local, intra- and inter-group
// pairs. One group is the intra-group baseline; larger fabrics add gateway
// hops, the route cache, and global-link contention.
func FabricGroups(groups int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine(1)
		topo := fabric.NewTopology(eng, fabric.DefaultConfig(), fabric.TopologySpec{Groups: groups, SwitchesPerGroup: 2})
		var addrs []fabric.Addr
		for i := range topo.Switches() {
			for k := 0; k < 2; k++ {
				addrs = append(addrs, topo.Attach(i, fabricSink{}))
			}
		}
		for _, a := range addrs {
			if err := topo.GrantVNI(a, 5); err != nil {
				b.Fatal(err)
			}
		}
		links := make([]*fabric.HostLink, len(addrs))
		for i := range addrs {
			sw, _ := topo.SwitchFor(addrs[i])
			links[i] = fabric.NewHostLink(eng, sw)
		}
		// One packet, one link pointer and one closure for the whole run:
		// a per-iteration literal escapes into the closure and costs two
		// heap allocations per op; mutating hoisted state costs none.
		var p fabric.Packet
		var l *fabric.HostLink
		send := func() { l.Send(&p) }
		base := eng.Steps + eng.Elided
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := i % len(addrs)
			dst := (i*7 + 1) % len(addrs) // co-prime stride
			if dst == src {
				dst = (dst + 1) % len(addrs)
			}
			p = fabric.Packet{Src: addrs[src], Dst: addrs[dst], VNI: 5, TC: fabric.TCBulkData, PayloadBytes: 1024, Frames: 1, Last: true}
			l = links[src]
			eng.After(0, send)
			eng.Run()
		}
		b.StopTimer()
		if topo.Stats().Forwarded == 0 {
			b.Fatal("no packets forwarded")
		}
		reportEventRate(b, eng, base)
	}
}

// FabricFleet returns the fleet-size scaling benchmark: a dragonfly of
// groups × switchesPerGroup switches with nodesPerSwitch endpoints each,
// over which every op completes 64 bulk 4 MiB transfers through the
// flow-level fast path (FidelityFlow). The events/s metric counts elided
// packet-fidelity events (2048 frames × 2·links+1 events per transfer), so
// the number is directly comparable to FabricGroups': the gap between them
// is the fast path's win.
func FabricFleet(groups, switchesPerGroup, nodesPerSwitch int) func(b *testing.B) {
	return func(b *testing.B) {
		const payload = 4 << 20
		eng := sim.NewEngine(1)
		cfg := fabric.DefaultConfig()
		topo := fabric.NewTopology(eng, cfg, fabric.TopologySpec{
			Groups: groups, SwitchesPerGroup: switchesPerGroup, NodesPerSwitch: nodesPerSwitch})
		frames := (payload + cfg.MTU - 1) / cfg.MTU
		nSwitches := groups * switchesPerGroup
		addrs := make([]fabric.Addr, 0, nSwitches*nodesPerSwitch)
		links := make([]*fabric.HostLink, 0, nSwitches*nodesPerSwitch)
		for i := 0; i < nSwitches; i++ {
			for k := 0; k < nodesPerSwitch; k++ {
				addr := topo.Attach(i, fabricSink{})
				if err := topo.GrantVNI(addr, 5); err != nil {
					b.Fatal(err)
				}
				sw, _ := topo.SwitchFor(addr)
				addrs = append(addrs, addr)
				links = append(links, fabric.NewHostLink(eng, sw))
			}
		}
		n := len(addrs)
		senders := 64
		if senders > n {
			senders = n
		}
		var p fabric.Packet // hoisted: see FabricGroups
		base := eng.Steps + eng.Elided
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < senders; j++ {
				src := (i*senders + j) % n
				dst := (src + n/2) % n // always a different switch: n/2 ≥ nodesPerSwitch
				p = fabric.Packet{Src: addrs[src], Dst: addrs[dst], VNI: 5, TC: fabric.TCBulkData,
					PayloadBytes: payload, Frames: frames, Last: true}
				if _, ok := links[src].SendFlow(&p, fabric.FidelityFlow, frames); !ok {
					b.Fatalf("flow path refused transfer %d->%d", src, dst)
				}
			}
			eng.Run()
		}
		b.StopTimer()
		if topo.Stats().Forwarded == 0 {
			b.Fatal("no transfers completed")
		}
		reportEventRate(b, eng, base)
	}
}

// CollectivesStack builds the stack of the benchmark's allreduce
// workloads: 8 ranks on a single-group dragonfly (4 switches × 2 nodes),
// frame coalescing off so a packet-fidelity run pays the true
// frame-granular event cost, one communicator over all of them, its gang
// held open for the life of the stack. The root module's allocation and
// engine-isolation tests drive it.
func CollectivesStack() (*stack.Stack, *mpi.Comm, error) {
	const ranks = 8
	opts := stack.DefaultOptions()
	opts.Nodes = ranks
	opts.Topology = fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 4, NodesPerSwitch: 2}
	opts.Device.CoalesceFrames = false
	st := stack.New(opts)
	st.Eng.RunFor(time.Second)
	gang, err := workload.HostGang(st, 1000, 1000, st.Nodes, 1, fabric.TCBulkData)
	if err != nil {
		return nil, nil, err
	}
	return st, gang.Comm, nil
}

// SchedulerPlacement measures end-to-end pod placement on a 64-node,
// 8-group fleet through the public stack API: per op, submit one job and
// run the cluster for 100 simulated milliseconds, enough to bind and start
// it. Placement must stay O(nodes).
func SchedulerPlacement(b *testing.B) {
	opts := stack.DefaultOptions()
	opts.Nodes = 64
	opts.Topology = fabric.TopologySpec{Groups: 8, SwitchesPerGroup: 2, NodesPerSwitch: 4}
	opts.Cluster.Scheduler.NodeCapacity = 1024
	st := stack.New(opts)
	st.Cluster.CreateNamespace("bench")
	st.Eng.RunFor(time.Second)
	base := st.Eng.Steps + st.Eng.Elided // exclude fleet-bootstrap events from the rate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := k8s.EchoJob("bench", fmt.Sprintf("place-%05d", i), nil)
		job.Spec.Template.RunDuration = time.Hour
		job.Spec.DeleteAfterFinished = false
		st.Cluster.SubmitJob(job)
		st.Eng.RunFor(100 * time.Millisecond)
	}
	reportEventRate(b, st.Eng, base)
}

// reportEventRate publishes the simulated-event throughput of the engine
// the benchmark drove: events retired since base (the engine's Steps+Elided
// reading when the timed region began), divided by the benchmark's timed
// wall clock. Elided events count — they are packet-fidelity-equivalent
// work the flow fast path completed in closed form — so throughput stays
// comparable across fidelity modes; for packet-only cases Elided is zero
// and the metric is unchanged. Passing the post-setup snapshot keeps
// untimed bootstrap events (e.g. fleet assembly) out of the rate.
func reportEventRate(b *testing.B, eng *sim.Engine, base uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eng.Steps+eng.Elided-base)/s, "events/s")
	}
}
