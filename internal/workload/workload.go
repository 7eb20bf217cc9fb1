package workload

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Pattern names a collective communication pattern the engine can drive.
type Pattern string

// The supported patterns; docs/workloads.md describes each algorithm and
// its cost model.
const (
	// AllreduceRing is the bandwidth-optimal ring allreduce
	// (reduce-scatter + allgather), the pattern of data-parallel training
	// and iterative solvers.
	AllreduceRing Pattern = "allreduce-ring"
	// AllreduceRecDbl is the latency-optimal recursive-doubling
	// allreduce; its doubling distances make the later rounds cross-group.
	AllreduceRecDbl Pattern = "allreduce-rd"
	// Alltoall is the pairwise-exchange complete exchange, the classic
	// global-link hotspot (FFT transposes, shuffle phases).
	Alltoall Pattern = "alltoall"
	// Halo is a periodic 1-D nearest-neighbor halo exchange, the stencil
	// pattern that placement-aware scheduling keeps inside a group.
	Halo Pattern = "halo"
)

// collectives is the pattern table, in documentation order: the algorithm
// each name runs, with the pattern's payload as its size argument.
var collectives = []struct {
	name Pattern
	run  func(c *mpi.Comm, size int, done func())
}{
	{AllreduceRing, (*mpi.Comm).AllreduceRing},
	{AllreduceRecDbl, (*mpi.Comm).AllreduceRecursiveDoubling},
	{Alltoall, (*mpi.Comm).AlltoallPairwise},
	{Halo, (*mpi.Comm).HaloExchange},
}

// Patterns lists every supported pattern, in documentation order.
func Patterns() []Pattern {
	out := make([]Pattern, len(collectives))
	for i, c := range collectives {
		out[i] = c.name
	}
	return out
}

// collective returns the algorithm behind a pattern name, or nil.
func collective(p Pattern) func(c *mpi.Comm, size int, done func()) {
	for _, c := range collectives {
		if c.name == p {
			return c.run
		}
	}
	return nil
}

// ParsePattern validates a pattern name from a scenario file or flag.
func ParsePattern(s string) (Pattern, error) {
	if collective(Pattern(s)) == nil {
		return "", fmt.Errorf("workload: unknown pattern %q (have %v)", s, Patterns())
	}
	return Pattern(s), nil
}

// Spec configures one traffic run: Iterations repetitions of Pattern with
// Bytes per collective call, separated by Compute of simulated
// application compute.
type Spec struct {
	Pattern Pattern
	// Bytes is the per-call payload: the vector size for allreduce, the
	// per-destination block for alltoall, the halo width for halo.
	Bytes int
	// Iterations is the number of collective calls (≥ 1).
	Iterations int
	// Compute is simulated application compute between iterations
	// (0 = back-to-back communication).
	Compute sim.Duration
	// Fidelity is the fabric execution mode for the run; the zero value is
	// exact packet fidelity (see fabric.Fidelity).
	Fidelity fabric.Fidelity
}

// Validate rejects malformed specs before they reach the engine.
func (s Spec) Validate() error {
	if _, err := ParsePattern(string(s.Pattern)); err != nil {
		return err
	}
	if s.Bytes < 0 {
		return fmt.Errorf("workload: negative payload %d", s.Bytes)
	}
	if s.Iterations < 1 {
		return fmt.Errorf("workload: iterations must be ≥ 1, got %d", s.Iterations)
	}
	if s.Compute < 0 {
		return fmt.Errorf("workload: negative compute %v", s.Compute)
	}
	if s.Fidelity > fabric.FidelityHybrid {
		return fmt.Errorf("workload: unknown fidelity %d", s.Fidelity)
	}
	return nil
}

// Report is the outcome of one traffic run.
type Report struct {
	Spec  Spec
	Ranks int
	// Elapsed is the virtual time from first call to last completion —
	// the job's communication time.
	Elapsed sim.Duration
	// MPIBytes is the payload volume the ranks pushed through the MPI
	// layer during the run.
	MPIBytes uint64
	// GlobalLinkBytes is the traffic that crossed dragonfly global links
	// during the run; zero means the placement kept the job inside one
	// group. Zero when no topology was attached.
	GlobalLinkBytes uint64
	// MaxLinkUtilization is the busiest directional trunk's utilization at
	// the end of the run (fabric-lifetime ratio, as the scenario assertion
	// of the same name reports).
	MaxLinkUtilization float64
	// TrunkDrops counts packets lost on down trunks during the run.
	TrunkDrops uint64
	// Migrations counts how many times the gang vacated a degrading
	// placement mid-run and resumed elsewhere (RunMigratable only;
	// always zero for Run/RunProgress).
	Migrations int
}

// Env is the control-plane glue a migratable run needs. The workload
// engine stays ignorant of Kubernetes: the caller (internal/scenario's
// Ops) supplies closures over the job, the scheduler's cordon set and
// the gang machinery.
type Env struct {
	// Connect gangs the job's current running pods. Called once at start
	// and once per migration; the run owns the gangs it is handed and
	// closes each one — when it vacates a placement, when it completes
	// and when it is abandoned.
	Connect func() (*Gang, error)
	// Preempted reports whether the gang must vacate — any member sits
	// on a node the health loop cordoned. Checked between iterations,
	// when no collective is in flight, so domains close cleanly. Nil
	// means never.
	Preempted func() bool
	// Ready reports whether the rescheduled gang is whole again (every
	// rank Running on schedulable nodes); polled every recheckEvery.
	Ready func() bool
}

// recheckEvery is the poll period of a vacated run.
const recheckEvery = 10 * time.Millisecond

// Run executes spec over the communicator and calls done with the report
// when the final iteration completes. topo, when non-nil, scopes the
// fabric counters to the run (byte and drop counters are deltas). The
// caller drives the engine; like every simulated component, Run only
// schedules events. The communicator's endpoints stay the caller's.
func Run(eng *sim.Engine, comm *mpi.Comm, topo *fabric.Topology, spec Spec, done func(Report)) error {
	return RunProgress(eng, comm, topo, spec, nil, done)
}

// RunProgress is Run with a per-iteration observer: progress(iter) runs
// after each collective call completes (iter counts from 1 to
// spec.Iterations). The telemetry sampler uses it to expose live workload
// progress; a nil progress makes it exactly Run.
func RunProgress(eng *sim.Engine, comm *mpi.Comm, topo *fabric.Topology, spec Spec, progress func(iter int), done func(Report)) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	// A fixed communicator is a gang that is never pre-empted (and whose
	// endpoints are not the run's to close).
	r := &run{eng: eng, topo: topo, spec: spec, progress: progress, done: done}
	r.start(comm)
	return nil
}

// RunMigratable is RunProgress for a gang the run owns and that survives
// preemption: at each iteration boundary it checks Env.Preempted, and if
// the placement has gone bad it closes the gang (releasing VNI grants and
// netns membership), waits for the control plane to reschedule the pods,
// re-gangs over the new placement, and resumes at the same iteration.
// Completed iterations are never redone — the checkpoint granularity is
// one collective call. The final Report counts the migrations and
// accumulates MPI bytes across all placements; the last gang is closed
// before done runs. A caller that gives up on the run (its stall bound
// expired) calls abandon: the run stops where it is, done is never
// called, and the gang it holds is closed. After done it does nothing.
func RunMigratable(eng *sim.Engine, topo *fabric.Topology, spec Spec, env Env, progress func(iter int), done func(Report)) (abandon func(), err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if env.Connect == nil {
		return nil, fmt.Errorf("workload: migratable run needs Env.Connect")
	}
	gang, err := env.Connect()
	if err != nil {
		return nil, err
	}
	r := &run{eng: eng, topo: topo, spec: spec, progress: progress, done: done,
		own: &owned{env: env, gang: gang}}
	r.start(gang.Comm)
	return r.abandon, nil
}

// run is one traffic run in flight: the iteration loop's state. What only
// a run that owns its gangs needs sits behind own, because benchmarks/
// holds the bytes a plain Run call allocates to within half a percent.
type run struct {
	eng      *sim.Engine
	topo     *fabric.Topology
	spec     Spec
	progress func(iter int)
	done     func(Report) // nil once the run is abandoned

	comm *mpi.Comm
	own  *owned // nil: a fixed communicator, never pre-empted

	iter  int
	began sim.Time
	// sentBase is comm's BytesSent reading less what the run had pushed
	// before comm took over, so the run's MPI bytes are BytesSent() -
	// sentBase; while vacated it holds the bytes pushed so far.
	sentBase              uint64
	globalBase, dropsBase uint64
	// iterated is the bound continuation every collective call gets, so
	// an iteration allocates nothing here.
	iterated func()
}

// owned is the state of a run over gangs it was handed by an Env.
type owned struct {
	env        Env
	gang       *Gang // the gang behind run.comm
	migrations int
}

// start adopts the first communicator and schedules the first iteration.
func (r *run) start(comm *mpi.Comm) {
	r.began = r.eng.Now()
	if r.topo != nil {
		r.globalBase, r.dropsBase = r.topo.GlobalLinkBytes(), r.topo.TrunkDrops()
	}
	r.iterated = r.afterCollective
	r.adopt(comm)
	r.eng.AfterCall(0, stepCall, r)
}

func stepCall(a any)  { a.(*run).step() }
func awaitCall(a any) { a.(*run).await() }

// adopt makes comm the run's communicator. Fidelity is always set, so a
// communicator reused across runs picks up each run's fidelity (including
// the packet default resetting an earlier flow run).
func (r *run) adopt(comm *mpi.Comm) {
	r.comm = comm
	comm.SetFidelity(r.spec.Fidelity)
	r.sentBase = comm.BytesSent() - r.sentBase
}

// abandon stops the run at its next boundary and closes its gang now (only
// a run that owns its gangs hands this out).
func (r *run) abandon() {
	r.done = nil
	r.own.gang.Close()
}

// step is the iteration boundary: finish, vacate, or issue the next
// collective call.
func (r *run) step() {
	if r.done == nil {
		return
	}
	if r.iter == r.spec.Iterations {
		if r.own != nil {
			r.own.gang.Close()
		}
		r.done(r.report())
		return
	}
	if o := r.own; o != nil && o.env.Preempted != nil && o.env.Preempted() {
		// No collective is in flight at an iteration boundary, so the
		// domains are idle and release cleanly; the evicted pods can
		// then terminate without tearing down live transports.
		r.sentBase = r.comm.BytesSent() - r.sentBase
		o.gang.Close()
		o.migrations++
		r.await()
		return
	}
	r.iter++
	// Validate guaranteed the pattern is in the table.
	collective(r.spec.Pattern)(r.comm, r.spec.Bytes, r.iterated)
}

// afterCollective runs when an iteration's collective call completes.
func (r *run) afterCollective() {
	if r.progress != nil {
		r.progress(r.iter)
	}
	if r.spec.Compute > 0 {
		r.eng.AfterCall(r.spec.Compute, stepCall, r)
		return
	}
	r.step()
}

// await polls, while vacated, for the rescheduled gang to be whole again,
// then re-gangs and resumes.
func (r *run) await() {
	if r.done == nil {
		return
	}
	o := r.own
	if o.env.Ready == nil || o.env.Ready() {
		// A placement that looks whole can still race a teardown in gang
		// setup; then poll again.
		if gang, err := o.env.Connect(); err == nil {
			o.gang = gang
			r.adopt(gang.Comm)
			r.step()
			return
		}
	}
	r.eng.AfterCall(recheckEvery, awaitCall, r)
}

// report fills the Report of a finished run.
func (r *run) report() Report {
	rep := Report{
		Spec:     r.spec,
		Ranks:    r.comm.Size(),
		Elapsed:  r.eng.Now().Sub(r.began),
		MPIBytes: r.comm.BytesSent() - r.sentBase,
	}
	if r.own != nil {
		rep.Migrations = r.own.migrations
	}
	if r.topo != nil {
		rep.GlobalLinkBytes = r.topo.GlobalLinkBytes() - r.globalBase
		rep.TrunkDrops = r.topo.TrunkDrops() - r.dropsBase
		for _, l := range r.topo.Links() {
			if l.Utilization > rep.MaxLinkUtilization {
				rep.MaxLinkUtilization = l.Utilization
			}
		}
	}
	return rep
}
