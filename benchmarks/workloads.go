package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/harness"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// sample is what one iteration reports besides its wall time; see the
// column constants in catalogue.go.
type sample [nColumns]float64

// iteration is what the runner hands one iteration and gets back from it.
type iteration struct {
	tr  *tracer // nil on untraced runs
	out sample  // virt.* columns always, count columns when tr is non-nil
	// Laps splits a long iteration into slices of identical work that are
	// timed separately; see lap. An iteration that never calls lap is one
	// slice.
	lapStart time.Time
	lapCPU   time.Duration
	wallMs   []float64
	cpuMs    []float64
}

// lap ends a timed slice of the iteration. The same call sequence must
// split every iteration of a workload at the same points, so that slice k
// is the same work each time.
func (it *iteration) lap() {
	now := time.Now()
	cpu, _ := rusage()
	it.wallMs = append(it.wallMs, float64(now.Sub(it.lapStart).Nanoseconds())/1e6)
	it.cpuMs = append(it.cpuMs, float64((cpu-it.lapCPU).Nanoseconds())/1e6)
	it.lapStart, it.lapCPU = now, cpu
}

// iterFunc runs one iteration: identical work every call, fresh state built
// from the workload's seed. It returns an error when the iteration's output
// is wrong.
type iterFunc func(it *iteration) error

// workloadDef is one benchmark workload. Names are fixed; later issues cite
// them.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it).
	Why string
	// Unit names the work unit; Units is how many one iteration completes.
	Unit  string
	Units int
	// Set-up is repeated Rounds times, each with Warmup iterations, sized
	// so a round is at least half a second and the set-up phase at least
	// two seconds of work at the seed.
	Rounds, Warmup int
	// Setup builds whatever outlives an iteration and returns the
	// iteration body; tr (nil when untraced) takes set-up spans.
	Setup func(seed int64, tr *tracer) (iterFunc, error)
}

var workloads = []workloadDef{
	{
		Name:   "admission_spike500",
		Why:    "the paper's Fig 11/12 burst of 500 vni:true jobs: the control plane at a small working set, k8s does most of the work, data path none",
		Unit:   "job",
		Units:  spikeJobs,
		Rounds: 5,
		Warmup: 5,
		Setup:  setupSpike,
	},
	{
		Name:   "cp_pods5000",
		Why:    "the same admission path at 10x the working set (5000 jobs, 8 nodes), where super-linear terms such as the vnidb owner scan dominate",
		Unit:   "job",
		Units:  cpJobs,
		Rounds: 3,
		Warmup: 1,
		Setup:  setupControlPlane,
	},
	{
		Name:   "allreduce_packet",
		Why:    "8-rank 1 MiB ring allreduce at packet fidelity: sim, fabric and cxi do all the work and the control plane none, so it bypasses every control-plane change",
		Unit:   "collective",
		Units:  2,
		Rounds: 5,
		Warmup: 70,
		Setup: func(seed int64, tr *tracer) (iterFunc, error) {
			return setupAllreduce(seed, tr, fabric.FidelityPacket, 2)
		},
	},
	{
		Name:   "allreduce_flow",
		Why:    "the same collective on the flow fast path: fabric events are elided, so mpi and cxi matching cost shows here and in no bundled scenario",
		Unit:   "collective",
		Units:  100,
		Rounds: 5,
		Warmup: 60,
		Setup: func(seed int64, tr *tracer) (iterFunc, error) {
			return setupAllreduce(seed, tr, fabric.FidelityFlow, 100)
		},
	},
	{
		Name:   "scenario_suite",
		Why:    "all 18 bundled scenarios parsed and run, what `shssim run scenarios/` costs: the only user of the YAML parser, assertions and the armed fault and health layers",
		Unit:   "scenario",
		Units:  suiteFiles,
		Rounds: 5,
		Warmup: 40,
		Setup:  setupSuite,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// harvest reads every counter a live stack exposes through public
// accessors. Counters only grow, so callers that reuse a stack subtract two
// readings.
func harvest(st *stack.Stack) sample {
	var s sample
	s[cSimEvents] = float64(st.Eng.Steps)
	s[cSimElided] = float64(st.Eng.Elided)
	fs := st.Topo.Stats()
	s[cFabricForwarded] = float64(fs.Forwarded)
	s[cFabricTrunk] = float64(fs.TrunkForwarded)
	s[cFabricDrops] = float64(fs.DropTotal())
	for _, n := range st.Nodes {
		ds := n.Device.Stats()
		s[cCXIMsgs] += float64(ds.MsgsSent)
		s[cCXIAuthOK] += float64(ds.AuthSuccesses)
		for _, v := range ds.AuthFailures {
			s[cCXIAuthFailed] += float64(v)
		}
		ps := n.CXICNI.Stats()
		s[cCNIAdds] += float64(ps.AddsConfigured)
		s[cCNIAddsFailed] += float64(ps.AddsFailed)
		s[cCNIDels] += float64(ps.DelsTotal)
	}
	if st.VNISvc != nil {
		es := st.VNISvc.Endpoint.Stats()
		s[cVNIAcquisitions] = float64(es.Acquisitions)
		s[cVNISyncErrors] = float64(es.SyncErrors)
	}
	ks := st.Cluster.Client.Stats()
	s[cK8sRetries] = float64(ks.Retries)
	s[cK8sConflicts] = float64(ks.Conflicts)
	s[cK8sRelists] = float64(ks.Relists)
	s[cK8sExhausted] = float64(ks.Exhausted)
	return s
}

// addCounts adds b's count columns into a (virt.* columns are left alone).
func addCounts(a *sample, b sample) {
	for i := 0; i < vSecPerIter; i++ {
		a[i] += b[i]
	}
}

const spikeJobs = 500

func spikeOptions(seed int64, vni bool) harness.AdmissionOptions {
	opts := harness.DefaultAdmissionOptions(harness.PatternSpike, vni)
	opts.Runs = 1
	opts.Seed = seed
	return opts
}

// spikeDelays runs one spike and returns the admission delays, checking
// that every job completed with a positive delay.
func spikeDelays(opts harness.AdmissionOptions) ([]float64, error) {
	res, err := harness.RunAdmission(opts)
	if err != nil {
		return nil, err
	}
	jobs := res.Runs[0].Jobs
	if len(jobs) != opts.SpikeJobs {
		return nil, fmt.Errorf("spike recorded %d jobs, want %d", len(jobs), opts.SpikeJobs)
	}
	delays := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if !j.Done || j.Delay() <= 0 {
			return nil, fmt.Errorf("job %s: done=%v delay=%gs", j.Name, j.Done, j.Delay())
		}
		delays = append(delays, j.Delay())
	}
	return delays, nil
}

// setupSpike has nothing to build: harness.RunAdmission assembles a fresh
// stack per run. The harness keeps that stack to itself, so this workload
// has simulated results and a profile but no engine or Stats() counters.
//
// On a traced run the set-up also measures the paper's headline number on
// the simulator: how much the VNI integration adds to the spike's median
// admission delay, against one baseline run without it (paper: 1.6-3.5 %).
// Simulated time, so it repeats exactly for a seed.
func setupSpike(seed int64, tr *tracer) (iterFunc, error) {
	opts := spikeOptions(seed, true)
	vniOverheadPct := 0.0
	if tr != nil {
		with, err := spikeDelays(opts)
		if err != nil {
			return nil, err
		}
		without, err := spikeDelays(spikeOptions(seed, false))
		if err != nil {
			return nil, err
		}
		vniOverheadPct = metrics.OverheadPct(metrics.Median(with), metrics.Median(without))
	}
	return func(it *iteration) error {
		id := it.tr.begin("harness.admission")
		delays, err := spikeDelays(opts)
		it.tr.end(id)
		if err != nil {
			return err
		}
		// All jobs are submitted at the same instant, so the longest delay
		// is the simulated time the burst took.
		it.out[vSecPerIter] = metrics.Percentile(delays, 100)
		it.out[vDelayP50] = metrics.Median(delays)
		it.out[vDelayP95] = metrics.Percentile(delays, 95)
		it.out[vVNIOverheadPct] = vniOverheadPct
		return nil
	}, nil
}

const cpJobs = 5000

// cpLapEvents is how many engine events one timed slice of a cp_pods5000
// iteration covers: about 100 ms of host time at the seed, the length of an
// admission_spike500 iteration, short enough to fall between a shared
// host's disturbances where a two-second iteration never does.
const cpLapEvents = 9000

// setupControlPlane is the body of benchControlPlane(5000) in the root
// bench_test.go: everything is per iteration, nothing persists.
func setupControlPlane(seed int64, _ *tracer) (iterFunc, error) {
	return func(it *iteration) error {
		tr, out := it.tr, &it.out
		id := tr.begin("stack.build")
		opts := stack.DefaultOptions()
		opts.Seed = seed
		opts.Nodes = 8
		// Uncap the job controller's client-side rate limiter: the subject
		// is control-plane asymptotics, not the QPS model.
		opts.Cluster.JobCtl.MaxQPS = 0
		st := stack.New(opts)
		st.Cluster.CreateNamespace("fleet")
		tr.end(id)

		completed := make(map[string]bool, cpJobs)
		st.Cluster.Client.Watch(k8s.KindJob, k8s.WatchOptions{}, func(ev k8s.Event) {
			job := ev.Object.(*k8s.Job)
			if ev.Type != k8s.EventDeleted && job.Status.Completed {
				completed[job.Meta.Key()] = true
			}
		})
		id = tr.begin("k8s.submit")
		for j := 0; j < cpJobs; j++ {
			job := k8s.EchoJob("fleet", fmt.Sprintf("cp-%05d", j),
				map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue})
			job.Spec.DeleteAfterFinished = false
			st.Cluster.SubmitJob(job)
		}
		tr.end(id)

		id = tr.begin("sim.drain")
		deadline := st.Eng.Now().Add(2 * time.Hour)
		done := func() bool { return len(completed) >= cpJobs }
		for !done() {
			lapEnd := st.Eng.Steps + cpLapEvents
			if !st.Eng.RunUntilDone(func() bool { return done() || st.Eng.Steps >= lapEnd }, deadline) {
				break
			}
			it.lap()
		}
		tr.end(id)
		if !done() {
			return fmt.Errorf("only %d/%d jobs completed", len(completed), cpJobs)
		}
		counts := harvest(st)
		if counts[cCNIAdds] != cpJobs || counts[cCNIAddsFailed] != 0 {
			return fmt.Errorf("CNI configured %g pods (%g failed), want %d",
				counts[cCNIAdds], counts[cCNIAddsFailed], cpJobs)
		}
		*out = counts
		out[vSecPerIter] = st.Eng.Now().Seconds()
		out[vCPSecPerJob] = st.Eng.Now().Seconds() / cpJobs
		return nil
	}, nil
}

const (
	allreduceRanks = 8
	allreduceBytes = 1 << 20
)

// allreduceStack is the perfsuite.CollectivesFidelity set-up: 8 ranks on a
// single-group dragonfly (4 switches x 2 nodes) with frame coalescing off,
// so a packet run pays the true frame-granular event cost.
func allreduceStack(seed int64) (*stack.Stack, *mpi.Comm, error) {
	opts := stack.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = allreduceRanks
	opts.Topology = fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 4, NodesPerSwitch: 2}
	opts.Device.CoalesceFrames = false
	st := stack.New(opts)
	st.Eng.RunFor(time.Second)
	var doms []*libfabric.Domain
	for n := 0; n < allreduceRanks; n++ {
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

// runAllreduce starts spec on the stack, drains the engine and checks the
// report: callback fired, the closed-form byte volume moved, nothing
// dropped.
func runAllreduce(tr *tracer, st *stack.Stack, comm *mpi.Comm, spec workload.Spec) (workload.Report, error) {
	var rep workload.Report
	finished := false
	id := tr.begin("workload.start")
	err := workload.Run(st.Eng, comm, st.Topo, spec, func(r workload.Report) { rep, finished = r, true })
	tr.end(id)
	if err != nil {
		return rep, err
	}
	id = tr.begin("sim.drain")
	st.Eng.Run()
	tr.end(id)
	if !finished {
		return rep, fmt.Errorf("collective never completed")
	}
	want := uint64(spec.Iterations) * mpi.AllreduceRingBytes(allreduceRanks, allreduceBytes)
	if rep.MPIBytes != want || rep.TrunkDrops != 0 {
		return rep, fmt.Errorf("allreduce moved %d bytes with %d trunk drops, want %d and 0",
			rep.MPIBytes, rep.TrunkDrops, want)
	}
	return rep, nil
}

// setupAllreduce builds one persistent stack; an iteration is one
// workload.Run of `collectives` back-to-back ring allreduces plus the
// engine drain.
func setupAllreduce(seed int64, tr *tracer, fid fabric.Fidelity, collectives int) (iterFunc, error) {
	id := tr.begin("stack.build")
	st, comm, err := allreduceStack(seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	// Once per set-up: the two fidelities must move the same bytes for the
	// same spec (runAllreduce holds both to the closed form). Their
	// simulated times are reported, not compared; ROADMAP item 5 owns that
	// bound.
	for _, f := range []fabric.Fidelity{fabric.FidelityPacket, fabric.FidelityFlow} {
		spec := workload.Spec{Pattern: workload.AllreduceRing, Bytes: allreduceBytes, Iterations: 2, Fidelity: f}
		if _, err := runAllreduce(nil, st, comm, spec); err != nil {
			return nil, fmt.Errorf("fidelity %d cross-check: %w", f, err)
		}
	}
	spec := workload.Spec{Pattern: workload.AllreduceRing, Bytes: allreduceBytes, Iterations: collectives, Fidelity: fid}
	return func(it *iteration) error {
		var before sample
		if it.tr != nil {
			before = harvest(st)
		}
		rep, err := runAllreduce(it.tr, st, comm, spec)
		if err != nil {
			return err
		}
		if it.tr != nil {
			after := harvest(st)
			for i := 0; i < vSecPerIter; i++ {
				it.out[i] = after[i] - before[i]
			}
		}
		it.out[vSecPerIter] = rep.Elapsed.Seconds()
		it.out[vAllreduceUs] = float64(rep.Elapsed.Microseconds()) / float64(collectives)
		return nil
	}, nil
}

const suiteFiles = 18

// setupSuite lists scenarios/*.yaml once (sorted; fuzz-corpus/ is a
// subdirectory and so not matched). Each file carries its own calibrated
// seed, so --seed does not apply. An iteration parses and runs every file,
// as `shssim run scenarios/` does.
func setupSuite(int64, *tracer) (iterFunc, error) {
	files, err := filepath.Glob(filepath.Join(repoRoot, "scenarios", "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(files) != suiteFiles {
		return nil, fmt.Errorf("found %d scenario files under %s/scenarios, want %d", len(files), repoRoot, suiteFiles)
	}
	sort.Strings(files)
	return func(it *iteration) error {
		tr, out := it.tr, &it.out
		var hooks scenario.Hooks
		if tr != nil {
			hooks.AfterRun = func(st *stack.Stack, _ *scenario.Result) { addCounts(out, harvest(st)) }
		}
		for _, path := range files {
			id := tr.begin("scenario.parse")
			sc, err := scenario.ParseFile(path)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("scenario.run")
			res := scenario.RunHooked(sc, hooks)
			tr.end(id)
			if !res.Passed() {
				if res.Err != nil {
					return res.Err
				}
				for _, a := range res.Asserts {
					if !a.Pass {
						return fmt.Errorf("%s: %s", sc.Name, a)
					}
				}
			}
			out[vSecPerIter] += res.SimTime.Seconds()
		}
		return nil
	}, nil
}
