package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/slurm"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// twoGroupStack builds a 2-group dragonfly (4 nodes per group) whose
// global links run at a tenth of the edge rate, so group spill is visible
// in completion time.
func twoGroupStack(t *testing.T, seed int64) *stack.Stack {
	t.Helper()
	opts := stack.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 8
	opts.Topology = fabric.TopologySpec{
		Groups: 2, SwitchesPerGroup: 1, NodesPerSwitch: 4,
		GlobalLinkBandwidthBits: 20e9,
	}
	return stack.New(opts)
}

// hostComm gangs host processes on the given nodes.
func hostComm(t *testing.T, st *stack.Stack, nodes []int) *mpi.Comm {
	t.Helper()
	var ranks []*stack.Node
	for _, n := range nodes {
		ranks = append(ranks, st.Nodes[n])
	}
	gang, err := HostGang(st, 1000, 1000, ranks, 1, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	return gang.Comm
}

// runReport drives one spec to completion and returns the report.
func runReport(t *testing.T, st *stack.Stack, comm *mpi.Comm, spec Spec) Report {
	t.Helper()
	var rep Report
	done := false
	if err := Run(st.Eng, comm, st.Topo, spec, func(r Report) { rep = r; done = true }); err != nil {
		t.Fatal(err)
	}
	st.Eng.Run()
	if !done {
		t.Fatal("workload never completed")
	}
	return rep
}

// TestPlacementSensitivity is the engine-level version of the bundled
// allreduce-colocated-vs-spilled scenario: the same allreduce gang runs
// measurably slower spilled across groups than co-located inside one, and
// the report's global-link counter explains why.
func TestPlacementSensitivity(t *testing.T) {
	spec := Spec{Pattern: AllreduceRing, Bytes: 256 << 10, Iterations: 5}

	st := twoGroupStack(t, 1)
	colo := runReport(t, st, hostComm(t, st, []int{0, 1, 2, 3}), spec)

	st = twoGroupStack(t, 1)
	spill := runReport(t, st, hostComm(t, st, []int{0, 1, 4, 5}), spec)

	if colo.GlobalLinkBytes != 0 {
		t.Errorf("co-located run crossed global links: %d bytes", colo.GlobalLinkBytes)
	}
	if spill.GlobalLinkBytes == 0 {
		t.Error("spilled run shows no global-link traffic")
	}
	if spill.Elapsed < colo.Elapsed*3/2 {
		t.Errorf("spill not measurably slower: colo %v vs spill %v", colo.Elapsed, spill.Elapsed)
	}
	if colo.MPIBytes != uint64(spec.Iterations)*mpi.AllreduceRingBytes(4, spec.Bytes) {
		t.Errorf("colo MPI bytes = %d", colo.MPIBytes)
	}
}

// TestRunDeterminism: same seed, same placement ⇒ identical report.
func TestRunDeterminism(t *testing.T) {
	spec := Spec{Pattern: Alltoall, Bytes: 32 << 10, Iterations: 3, Compute: time.Millisecond}
	run := func() Report {
		st := twoGroupStack(t, 42)
		return runReport(t, st, hostComm(t, st, []int{0, 1, 4, 5}), spec)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	if a.Elapsed <= sim.Duration(3*time.Millisecond) {
		t.Errorf("elapsed %v does not cover the compute phases", a.Elapsed)
	}
}

// TestRunValidatesSpec rejects malformed specs without scheduling events.
func TestRunValidatesSpec(t *testing.T) {
	st := twoGroupStack(t, 1)
	comm := hostComm(t, st, []int{0, 1})
	for _, spec := range []Spec{
		{Pattern: "warp-drive", Bytes: 1, Iterations: 1},
		{Pattern: AllreduceRing, Bytes: -1, Iterations: 1},
		{Pattern: AllreduceRing, Bytes: 1, Iterations: 0},
		{Pattern: AllreduceRing, Bytes: 1, Iterations: 1, Compute: -time.Second},
	} {
		if err := Run(st.Eng, comm, st.Topo, spec, func(Report) {}); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestGangFromScheduledJob builds a communicator over a real scheduled
// job's pods (netns-authenticated domains on the job's private VNI) and
// runs a collective through the full stack.
func TestGangFromScheduledJob(t *testing.T) {
	st := twoGroupStack(t, 1)
	st.Cluster.CreateNamespace("team")
	st.Cluster.SubmitJob(&k8s.Job{
		Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: "team", Name: "solver",
			Annotations: map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue}},
		Spec: k8s.JobSpec{Parallelism: 4,
			Template: k8s.PodSpec{Image: "solver:1", RunDuration: time.Hour}},
	})
	deadline := st.Eng.Now().Add(2 * time.Minute)
	var vni fabric.VNI
	ok := st.Eng.RunUntilDone(func() bool {
		running := 0
		for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("team") {
			if obj.(*k8s.Pod).Status.Phase == k8s.PodRunning {
				running++
			}
		}
		if running < 4 {
			return false
		}
		for _, obj := range vniapi.VNILister(st.Cluster.Client).List("team") {
			cr := obj.(*k8s.Custom)
			if cr.Spec[vniapi.SpecVNI] != "" {
				fmt.Sscanf(cr.Spec[vniapi.SpecVNI], "%d", &vni)
				return vni != 0
			}
		}
		return false
	}, deadline)
	if !ok {
		t.Fatal("job pods never came up with a VNI")
	}
	gang, err := PodGang(st, "team", "solver", vni, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	defer gang.Close()
	if gang.Comm.Size() != 4 {
		t.Fatalf("gang size %d, want 4", gang.Comm.Size())
	}
	rep := runReport(t, st, gang.Comm, Spec{Pattern: AllreduceRecDbl, Bytes: 4096, Iterations: 2})
	if rep.Ranks != 4 || rep.Elapsed <= 0 {
		t.Errorf("report %+v", rep)
	}
	if want := 2 * mpi.AllreduceRecursiveDoublingBytes(4, 4096); rep.MPIBytes != want {
		t.Errorf("MPI bytes %d, want %d", rep.MPIBytes, want)
	}
}

// TestGangNeedsRunningPods: a job with fewer than two running pods is not
// a gang.
func TestGangNeedsRunningPods(t *testing.T) {
	st := twoGroupStack(t, 1)
	st.Cluster.CreateNamespace("team")
	if _, err := PodGang(st, "team", "ghost", 1, fabric.TCDedicated); err == nil {
		t.Error("gang over nonexistent job accepted")
	}
}

// TestHostGang runs a collective over a Slurm allocation: the host ranks
// authenticate as the job's user against slurmd's UID-member services, the
// job's VNI carries the traffic, and closing the gang leaves the services
// idle so the epilog can destroy them.
func TestHostGang(t *testing.T) {
	st := twoGroupStack(t, 1)
	root, err := st.Kernel.Spawn("slurm-root", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*slurm.Node
	var names []string
	for _, n := range st.Nodes[:4] {
		nodes = append(nodes, &slurm.Node{Name: n.Name, Device: n.Device})
		names = append(names, n.Name)
	}
	ctl := slurm.NewController(st.DB, st.Eng, root.PID, nodes)
	job, err := ctl.Submit(3001, 3001, names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HostGang(st, 3002, 3002, st.Nodes[:4], job.VNI, fabric.TCDedicated); err == nil {
		t.Error("a stranger's ranks were admitted to the job's services")
	}
	gang, err := HostGang(st, job.User, job.Group, st.Nodes[:4], job.VNI, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, st, gang.Comm, Spec{Pattern: Halo, Bytes: 8192, Iterations: 3})
	if want := 3 * mpi.HaloExchangeBytes(4, 8192); rep.MPIBytes != want {
		t.Errorf("MPI bytes %d, want %d", rep.MPIBytes, want)
	}
	// The allocation is intra-group: no global-link traffic.
	if rep.GlobalLinkBytes != 0 {
		t.Errorf("intra-group slurm gang crossed global links: %d bytes", rep.GlobalLinkBytes)
	}
	if err := ctl.Complete(job.ID); err == nil {
		t.Error("epilog destroyed services with the gang's endpoints open")
	}
	gang.Close()
	if err := ctl.Complete(job.ID); err != nil {
		t.Errorf("complete after closing endpoints: %v", err)
	}
}

// TestFixedAndMigratableRunsAgree pins the fold of the two iteration loops
// into one: a communicator handed to RunProgress and a gang handed to
// RunMigratable by an Env that never pre-empts are the same run — equal
// report, equal progress calls, and engines left in the same state (events
// executed, next random draw) on two fresh same-seed stacks.
func TestFixedAndMigratableRunsAgree(t *testing.T) {
	nodes := []int{0, 1, 4, 5}
	for _, spec := range []Spec{
		{Pattern: AllreduceRing, Bytes: 64 << 10, Iterations: 4},
		{Pattern: Alltoall, Bytes: 8 << 10, Iterations: 3, Compute: time.Millisecond, Fidelity: fabric.FidelityFlow},
	} {
		type outcome struct {
			rep      Report
			progress []int
			steps    uint64
			draw     int64
		}
		drive := func(start func(st *stack.Stack, progress func(int), done func(Report)) error) outcome {
			st := twoGroupStack(t, 7)
			var out outcome
			finished := false
			err := start(st, func(iter int) { out.progress = append(out.progress, iter) },
				func(r Report) { out.rep, finished = r, true })
			if err != nil {
				t.Fatal(err)
			}
			st.Eng.Run()
			if !finished {
				t.Fatal("workload never completed")
			}
			out.steps, out.draw = st.Eng.Steps, st.Eng.Rand().Int63()
			return out
		}
		fixed := drive(func(st *stack.Stack, progress func(int), done func(Report)) error {
			return RunProgress(st.Eng, hostComm(t, st, nodes), st.Topo, spec, progress, done)
		})
		connects := 0
		migratable := drive(func(st *stack.Stack, progress func(int), done func(Report)) error {
			env := Env{
				Connect: func() (*Gang, error) {
					connects++
					return &Gang{Comm: hostComm(t, st, nodes)}, nil
				},
				Preempted: func() bool { return false },
			}
			_, err := RunMigratable(st.Eng, st.Topo, spec, env, progress, done)
			return err
		})
		if connects != 1 {
			t.Errorf("%s: gang connected %d times, want once", spec.Pattern, connects)
		}
		if !reflect.DeepEqual(fixed, migratable) {
			t.Errorf("%s: the two entry points diverge:\nfixed      %+v\nmigratable %+v", spec.Pattern, fixed, migratable)
		}
		if len(fixed.progress) != spec.Iterations || fixed.rep.Migrations != 0 {
			t.Errorf("%s: %d progress calls, %d migrations", spec.Pattern, len(fixed.progress), fixed.rep.Migrations)
		}
	}
}

// TestMigratableRunVacatesAndResumes drives the pre-emption branch without
// a control plane: the run closes the gang it vacates, polls until the
// placement is ready, asks for a new gang, resumes at the same iteration,
// and closes the last gang before reporting.
func TestMigratableRunVacatesAndResumes(t *testing.T) {
	st := twoGroupStack(t, 1)
	spec := Spec{Pattern: Halo, Bytes: 4096, Iterations: 4}
	var gangs []*Gang
	var iters []int
	readyAt := sim.Time(0)
	env := Env{
		Connect: func() (*Gang, error) {
			g, err := HostGang(st, 1000, 1000, st.Nodes[len(gangs)*2:len(gangs)*2+4], 1, fabric.TCDedicated)
			if err == nil {
				gangs = append(gangs, g)
			}
			return g, err
		},
		// Pre-empted once, after the second iteration.
		Preempted: func() bool {
			if len(iters) == 2 && len(gangs) == 1 {
				readyAt = st.Eng.Now().Add(25 * time.Millisecond)
				return true
			}
			return false
		},
		Ready: func() bool { return st.Eng.Now() >= readyAt },
	}
	var rep Report
	finished := false
	abandon, err := RunMigratable(st.Eng, st.Topo, spec, env, func(iter int) { iters = append(iters, iter) },
		func(r Report) { rep, finished = r, true })
	if err != nil {
		t.Fatal(err)
	}
	st.Eng.Run()
	if !finished {
		t.Fatal("workload never completed")
	}
	abandon() // after done: nothing left to stop or close
	if !reflect.DeepEqual(iters, []int{1, 2, 3, 4}) {
		t.Errorf("iterations %v: a migration must neither redo nor skip one", iters)
	}
	if rep.Migrations != 1 || len(gangs) != 2 {
		t.Fatalf("%d migrations over %d gangs, want 1 over 2", rep.Migrations, len(gangs))
	}
	if want := 4 * mpi.HaloExchangeBytes(4, 4096); rep.MPIBytes != want {
		t.Errorf("MPI bytes %d across both placements, want %d", rep.MPIBytes, want)
	}
	if rep.Elapsed < sim.Duration(25*time.Millisecond) {
		t.Errorf("elapsed %v does not cover the vacated wait", rep.Elapsed)
	}
	for i, g := range gangs {
		if !gangClosed(g) {
			t.Errorf("gang %d still has open endpoints after the run", i)
		}
	}
}

// gangClosed reports whether the gang's endpoints were released.
func gangClosed(g *Gang) bool {
	return g.doms[0].Send(g.Comm.Ranks[1].Addr(), 1, nil) != nil
}

// TestAbandonedRunStopsAndCloses: a caller that gives up on a run — in the
// middle of a collective, or while the run waits vacated for a placement —
// gets the endpoints released at once, no report, and no further gang.
func TestAbandonedRunStopsAndCloses(t *testing.T) {
	for _, vacated := range []bool{false, true} {
		st := twoGroupStack(t, 1)
		var gangs []*Gang
		env := Env{
			Connect: func() (*Gang, error) {
				g, err := HostGang(st, 1000, 1000, st.Nodes[:4], 1, fabric.TCDedicated)
				if err == nil {
					gangs = append(gangs, g)
				}
				return g, err
			},
			Preempted: func() bool { return vacated },
			Ready:     func() bool { return st.Eng.Now() > sim.Time(time.Hour) },
		}
		abandon, err := RunMigratable(st.Eng, st.Topo, Spec{Pattern: Alltoall, Bytes: 1 << 20, Iterations: 50}, env, nil,
			func(Report) { t.Error("an abandoned run reported") })
		if err != nil {
			t.Fatal(err)
		}
		st.Eng.RunFor(100 * time.Microsecond)
		abandon()
		if len(gangs) != 1 || !gangClosed(gangs[0]) {
			t.Fatalf("vacated=%v: %d gang(s), first closed: %v", vacated, len(gangs), gangClosed(gangs[0]))
		}
		st.Eng.RunFor(2 * time.Hour)
		if len(gangs) != 1 {
			t.Errorf("vacated=%v: the abandoned run went on to ask for %d more gang(s)", vacated, len(gangs)-1)
		}
	}
}

// TestPatternTable runs every declared pattern once through the engine —
// each name reaches its own algorithm, told apart by the closed-form byte
// count — and rejects names outside the table.
func TestPatternTable(t *testing.T) {
	const n, size = 4, 1024
	want := map[Pattern]uint64{
		AllreduceRing:   mpi.AllreduceRingBytes(n, size),
		AllreduceRecDbl: mpi.AllreduceRecursiveDoublingBytes(n, size),
		Alltoall:        mpi.AlltoallPairwiseBytes(n, size),
		Halo:            mpi.HaloExchangeBytes(n, size),
	}
	if len(Patterns()) != len(want) {
		t.Fatalf("patterns %v, byte counts for %d", Patterns(), len(want))
	}
	for _, p := range Patterns() {
		if got, err := ParsePattern(string(p)); err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %q, %v", p, got, err)
		}
		st := twoGroupStack(t, 1)
		rep := runReport(t, st, hostComm(t, st, []int{0, 1, 2, 3}), Spec{Pattern: p, Bytes: size, Iterations: 1})
		if rep.MPIBytes != want[p] {
			t.Errorf("%s moved %d bytes, want %d", p, rep.MPIBytes, want[p])
		}
	}
	if _, err := ParsePattern("bitonic-sort"); err == nil {
		t.Error("unknown pattern accepted")
	}
}
