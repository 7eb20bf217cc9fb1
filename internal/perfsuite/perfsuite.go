// Package perfsuite is the repository's allocation-tracking benchmark
// suite: one canonical implementation of every hot-path benchmark, shared
// by the `go test -bench` wrappers (internal/sim, internal/fabric, the root
// bench file) and by `shsbench -exp perf`, which runs the suite in-process
// and writes a machine-readable BENCH_*.json snapshot.
//
// The JSON trajectory is the perf contract between PRs: every case records
// ns/op, B/op, allocs/op and — for cases that drive a sim.Engine —
// simulated events per wall-clock second, so a regression in either the
// event core or the packet path shows up as a number, not a feeling. See
// docs/performance.md for how to run and read it.
package perfsuite

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/harness"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// Case is one suite entry: a named benchmark function runnable both under
// `go test -bench` (via the thin wrappers) and under testing.Benchmark
// (via Run).
type Case struct {
	Name string
	// Bench is the benchmark body. Implementations must call b.ReportAllocs
	// so allocation tracking works without -benchmem, and may report an
	// "events/s" metric (simulated events per wall second).
	Bench func(b *testing.B)
}

// Result is one case's measurement, the unit of the BENCH_*.json schema.
type Result struct {
	Name string `json:"name"`
	// Ops is the number of benchmark iterations the measurement averaged.
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SimEventsPerSec is simulated-event throughput (engine Steps retired
	// per wall-clock second); zero for cases that do not report it.
	SimEventsPerSec float64 `json:"sim_events_per_sec,omitempty"`
	// Extra carries any other custom metrics the case reported.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Suite     string   `json:"suite"`
	GoVersion string   `json:"go_version"`
	Cases     []Result `json:"cases"`
}

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
// the number is directly comparable to the packet-fidelity Fabric_Groups
// cases: the gap between them is the fast path's win, and the trend across
// FleetN64/512/4096 is the events/s-vs-fleet-size curve the ROADMAP asks
// for.
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

// CollectivesFidelity returns the end-to-end fidelity contrast case: an
// 8-rank, 1 MiB ring allreduce on a single-group dragonfly, run through
// the full stack (CXI NIC model, libfabric, MPI) at the given fabric
// fidelity. CoalesceFrames is disabled so the packet run pays the true
// frame-granular event cost a bulk transfer implies — the contrast between
// Collectives_Flow and Collectives_Packet is then the tentpole's win on an
// uncontended bulk collective, in both wall time and events/s.
func CollectivesFidelity(fid fabric.Fidelity) func(b *testing.B) {
	return func(b *testing.B) {
		st, comm, err := CollectivesStack()
		if err != nil {
			b.Fatal(err)
		}
		spec := workload.Spec{Pattern: workload.AllreduceRing, Bytes: 1 << 20, Iterations: 2, Fidelity: fid}
		base := st.Eng.Steps + st.Eng.Elided
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			finished := false
			if err := workload.Run(st.Eng, comm, st.Topo, spec, func(workload.Report) { finished = true }); err != nil {
				b.Fatal(err)
			}
			st.Eng.Run()
			if !finished {
				b.Fatal("collective never completed")
			}
		}
		reportEventRate(b, st.Eng, base)
	}
}

// CollectivesStack builds the stack the CollectivesFidelity cases run on:
// 8 ranks on a single-group dragonfly (4 switches × 2 nodes), frame
// coalescing off, one communicator over all of them. The root module's
// allocation and engine-isolation tests drive the same stack.
func CollectivesStack() (*stack.Stack, *mpi.Comm, error) {
	const ranks = 8
	opts := stack.DefaultOptions()
	opts.Nodes = ranks
	opts.Topology = fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 4, NodesPerSwitch: 2}
	opts.Device.CoalesceFrames = false
	st := stack.New(opts)
	st.Eng.RunFor(time.Second)
	var doms []*libfabric.Domain
	for n := 0; n < ranks; n++ {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("bench-rank%d", n), 1000, 1000, 0, 0)
		if err != nil {
			return nil, nil, err
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: st.Nodes[n].Device, Caller: proc.PID, VNI: 1, TC: fabric.TCBulkData})
		if err != nil {
			return nil, nil, err
		}
		doms = append(doms, d)
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	return st, comm, err
}

// CollectivesSweepConfig is the compact sweep the Collectives case runs:
// every pattern at 64 KiB across flat/colocated/spilled placements.
// Exported so the root BenchmarkCollectives wrapper can print the same
// deterministic table untimed.
func CollectivesSweepConfig() harness.CollectivesConfig {
	cfg := harness.DefaultCollectivesConfig()
	cfg.Sizes = []int{64 << 10}
	cfg.Iterations = 3
	return cfg
}

// Collectives runs the compact placement-sensitivity sweep (see
// CollectivesSweepConfig) through the full stack — scheduler, CNI, NIC
// model, MPI collectives, dragonfly fabric — and reports the worst
// spill-vs-colocated slowdown, the number the topology-aware scheduler
// buys back.
func Collectives(b *testing.B) {
	b.ReportAllocs()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunCollectivesSweep(CollectivesSweepConfig())
		if err != nil {
			b.Fatal(err)
		}
		byKey := map[string]workload.Report{}
		for _, r := range rows {
			byKey[string(r.Placement)+"/"+string(r.Pattern)] = r.Report
		}
		worst = 0
		for _, p := range workload.Patterns() {
			colo, spill := byKey["colocated/"+string(p)], byKey["spilled/"+string(p)]
			if colo.Elapsed > 0 {
				if ratio := float64(spill.Elapsed) / float64(colo.Elapsed); ratio > worst {
					worst = ratio
				}
			}
		}
	}
	b.ReportMetric(worst, "worst_spill_x")
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
		job := k8s.EchoJob("bench", k8s.UniqueJobName("place"), nil)
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
// untimed bootstrap events (e.g. fleet assembly) out of the rate
// BENCH_*.json records.
func reportEventRate(b *testing.B, eng *sim.Engine, base uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eng.Steps+eng.Elided-base)/s, "events/s")
	}
}

// Suite returns the canonical case list, in trajectory order.
func Suite() []Case {
	return []Case{
		{Name: "Engine_Schedule", Bench: EngineSchedule},
		{Name: "Engine_CancelHeavy", Bench: EngineCancelHeavy},
		{Name: "Fabric_Groups1", Bench: FabricGroups(1)},
		{Name: "Fabric_Groups4", Bench: FabricGroups(4)},
		{Name: "Fabric_Groups16", Bench: FabricGroups(16)},
		{Name: "Fabric_FleetN64", Bench: FabricFleet(8, 2, 4)},
		{Name: "Fabric_FleetN512", Bench: FabricFleet(16, 4, 8)},
		{Name: "Fabric_FleetN4096", Bench: FabricFleet(32, 8, 16)},
		{Name: "Collectives", Bench: Collectives},
		{Name: "Collectives_Packet", Bench: CollectivesFidelity(fabric.FidelityPacket)},
		{Name: "Collectives_Flow", Bench: CollectivesFidelity(fabric.FidelityFlow)},
		{Name: "SchedulerPlacement", Bench: SchedulerPlacement},
	}
}

// Run executes the whole suite via testing.Benchmark and returns the
// measurements. Wall-clock cost is roughly the Go default benchtime (1s)
// per case. A case whose body aborts (b.Fatal) is reported as an error
// naming the case — testing.Benchmark swallows the failure into a zero
// result, which would otherwise surface only as NaN arithmetic
// downstream.
func Run() ([]Result, error) {
	var out []Result
	for _, c := range Suite() {
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			return nil, fmt.Errorf("perfsuite: case %s failed (benchmark body aborted; run `go test -bench %s` for the failure output)", c.Name, c.Name)
		}
		res := Result{
			Name:        c.Name,
			Ops:         r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		for k, v := range r.Extra {
			if k == "events/s" {
				res.SimEventsPerSec = v
				continue
			}
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[k] = v
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteJSON renders results as the BENCH_*.json document.
func WriteJSON(w io.Writer, suite string, results []Result) error {
	rep := Report{Suite: suite, GoVersion: runtime.Version(), Cases: results}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RenderTable prints results as an aligned text table, the human-readable
// twin of WriteJSON.
func RenderTable(w io.Writer, results []Result) {
	fmt.Fprintf(w, "%-22s %14s %12s %12s %16s\n", "case", "ns/op", "B/op", "allocs/op", "sim events/s")
	for _, r := range results {
		ev := "-"
		if r.SimEventsPerSec > 0 {
			ev = fmt.Sprintf("%.0f", r.SimEventsPerSec)
		}
		fmt.Fprintf(w, "%-22s %14.1f %12d %12d %16s\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, ev)
	}
}
