// Package harness drives the paper's evaluation (§IV): the OSU
// communication-overhead experiments (Figures 5-8) across the three
// measurement modes (host, vni:true, vni:false), and the job-admission
// experiments (Figures 9-12) with the ramp and spike load patterns. It also
// renders each figure's data as text tables (figures.go) so `go test
// -bench` and cmd/shsbench regenerate the paper's plots row by row.
//
// Beyond the paper's figures it hosts the extension experiments:
// traffic-class interference (tc.go), overlay-vs-RDMA (overlaycmp.go),
// the multi-group hot-link report (fabricreport.go) and the collectives
// placement-sensitivity sweep (collectives.go); EXPERIMENTS.md records
// the reference outputs.
package harness

import (
	"fmt"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/osu"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// CommMode is one line of Figures 5-8.
type CommMode string

// The three measurement modes of §IV-A.
const (
	ModeHost     CommMode = "host"      // bare host, no Kubernetes
	ModeVNITrue  CommMode = "vni:true"  // pods with the Slingshot integration
	ModeVNIFalse CommMode = "vni:false" // pods on the globally accessible VNI
)

// BenchKind selects the OSU benchmark.
type BenchKind string

// Benchmark kinds.
const (
	BenchBw      BenchKind = "osu_bw"
	BenchLatency BenchKind = "osu_latency"
)

// CommOptions configure a communication experiment.
type CommOptions struct {
	Kind BenchKind
	Mode CommMode
	// Runs is the number of independent repetitions (paper: 10 for
	// throughput, 25 for the latency-overhead figure).
	Runs int
	Seed int64
	OSU  osu.Options
}

// DefaultCommOptions mirrors the paper's setup with simulation-friendly
// iteration counts (see EXPERIMENTS.md on iteration scaling).
func DefaultCommOptions(kind BenchKind, mode CommMode) CommOptions {
	o := CommOptions{Kind: kind, Mode: mode, Runs: 10, Seed: 1}
	if kind == BenchBw {
		o.OSU = osu.DefaultBwOptions()
	} else {
		o.OSU = osu.DefaultLatencyOptions()
	}
	return o
}

// CommSeries holds per-size, per-run measurements for one mode.
type CommSeries struct {
	Kind  BenchKind
	Mode  CommMode
	Sizes []int
	ByRun map[int][]float64 // size -> one value per run
}

// RunComm executes the experiment and returns the series.
func RunComm(opts CommOptions) (*CommSeries, error) {
	s := &CommSeries{Kind: opts.Kind, Mode: opts.Mode,
		Sizes: append([]int(nil), opts.OSU.Sizes...), ByRun: make(map[int][]float64)}
	// Salt the seed by mode so the three modes get independent run-drift
	// samples, as unpaired measurements on a real system would.
	modeSalt := int64(0)
	for _, c := range string(opts.Mode) {
		modeSalt = modeSalt*131 + int64(c)
	}
	for run := 0; run < opts.Runs; run++ {
		pts, err := runCommOnce(opts, opts.Seed+modeSalt+int64(run)*7919)
		if err != nil {
			return nil, fmt.Errorf("harness: %s %s run %d: %w", opts.Kind, opts.Mode, run, err)
		}
		for _, p := range pts {
			s.ByRun[p.Size] = append(s.ByRun[p.Size], p.Value)
		}
	}
	return s, nil
}

// runCommOnce builds a fresh deployment and measures one repetition.
func runCommOnce(opts CommOptions, seed int64) ([]osu.Point, error) {
	sopts := stack.DefaultOptions()
	sopts.Seed = seed
	st := stack.New(sopts)

	var doms []*libfabric.Domain
	var err error
	switch opts.Mode {
	case ModeHost:
		doms, err = hostDomains(st)
	case ModeVNITrue:
		doms, err = podDomains(st, true)
	case ModeVNIFalse:
		doms, err = podDomains(st, false)
	default:
		return nil, fmt.Errorf("unknown mode %q", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		return nil, err
	}
	var pts []osu.Point
	finished := false
	collect := func(p []osu.Point) { pts, finished = p, true }
	switch opts.Kind {
	case BenchBw:
		osu.Bandwidth(st.Eng, comm, opts.OSU, collect)
	case BenchLatency:
		osu.Latency(st.Eng, comm, opts.OSU, collect)
	default:
		return nil, fmt.Errorf("unknown bench %q", opts.Kind)
	}
	for !finished && st.Eng.Step() {
	}
	if !finished {
		return nil, fmt.Errorf("benchmark did not complete")
	}
	return pts, nil
}

// hostDomains opens one domain per node directly on the host (the paper's
// baseline "without involving Kubernetes"), using the default service's
// global VNI.
func hostDomains(st *stack.Stack) ([]*libfabric.Domain, error) {
	var doms []*libfabric.Domain
	for i := 0; i < 2; i++ {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("osu-rank%d", i), 1000, 1000, 0, 0)
		if err != nil {
			return nil, err
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: st.Nodes[i].Device, Caller: proc.PID, VNI: 1, TC: fabric.TCDedicated})
		if err != nil {
			return nil, err
		}
		doms = append(doms, d)
	}
	return doms, nil
}

// podDomains submits a two-pod MPI job (spread across the two nodes by the
// scheduler, as the paper does with topology spread constraints), waits for
// both pods to run, and opens a domain inside each pod.
func podDomains(st *stack.Stack, vni bool) ([]*libfabric.Domain, error) {
	st.Cluster.CreateNamespace("bench")
	var ann map[string]string
	if vni {
		ann = map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue}
	}
	job := &k8s.Job{
		Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: "bench", Name: "osu", Annotations: ann},
		Spec: k8s.JobSpec{
			Parallelism: 2,
			Template: k8s.PodSpec{
				Image:       "osu-micro-benchmarks:7.3",
				RunDuration: time.Hour, // ranks outlive the measurement
			},
		},
	}
	st.Cluster.SubmitJob(job)

	// Wait for both pods to be Running.
	deadline := st.Eng.Now().Add(2 * time.Minute)
	for st.Eng.Now() < deadline {
		st.Eng.RunFor(200 * time.Millisecond)
		if runningPods(st) == 2 {
			break
		}
	}
	if runningPods(st) != 2 {
		return nil, fmt.Errorf("pods not running after %v", 2*time.Minute)
	}

	useVNI := fabric.VNI(1) // vni:false: globally accessible VNI
	if vni {
		v, err := jobVNI(st, "bench", "osu")
		if err != nil {
			return nil, err
		}
		useVNI = v
	}

	var doms []*libfabric.Domain
	for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("bench") {
		pod := obj.(*k8s.Pod)
		if pod.Status.Phase != k8s.PodRunning {
			continue
		}
		node, ok := st.NodeByName(pod.Spec.NodeName)
		if !ok {
			return nil, fmt.Errorf("pod %s on unknown node %s", pod.Meta.Name, pod.Spec.NodeName)
		}
		proc, err := node.Runtime.Exec(pod.Meta.Namespace, pod.Meta.Name, "osu-rank", 0, 0)
		if err != nil {
			return nil, err
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: node.Device, Caller: proc.PID, VNI: useVNI, TC: fabric.TCDedicated})
		if err != nil {
			return nil, err
		}
		doms = append(doms, d)
	}
	if len(doms) != 2 {
		return nil, fmt.Errorf("opened %d domains, want 2", len(doms))
	}
	return doms, nil
}

func runningPods(st *stack.Stack) int {
	n := 0
	for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("bench") {
		if obj.(*k8s.Pod).Status.Phase == k8s.PodRunning {
			n++
		}
	}
	return n
}

// jobVNI reads the VNI assigned to a job from its VNI CRD instance via the
// by-job index.
func jobVNI(st *stack.Stack, namespace, jobName string) (fabric.VNI, error) {
	for _, obj := range vniapi.VNILister(st.Cluster.Client).ByIndex(vniapi.IndexVNIByJob, k8s.IndexKey{Namespace: namespace, Name: jobName}) {
		cr := obj.(*k8s.Custom)
		v, err := strconv.ParseUint(cr.Spec[vniapi.SpecVNI], 10, 32)
		if err != nil {
			return 0, err
		}
		return fabric.VNI(v), nil
	}
	return 0, fmt.Errorf("no VNI CRD for job %s/%s", namespace, jobName)
}
