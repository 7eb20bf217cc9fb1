// Package harness drives the paper's evaluation (§IV): the OSU
// communication-overhead experiments (Figures 5-8) across the three
// measurement modes (host, vni:true, vni:false), and the job-admission
// experiments (Figures 9-12) with the ramp and spike load patterns. It also
// renders each figure's data as text tables (figures.go), which
// cmd/shsbench prints — the one front end that regenerates the paper's
// plots row by row. TestPaperClaims (claims_test.go) holds every claim the
// paper makes about those figures at seeds 1-8.
//
// Beyond the paper's figures it hosts the extension experiments:
// traffic-class interference (tc.go), overlay-vs-RDMA (overlaycmp.go),
// the multi-group hot-link report (fabricreport.go) and the collectives
// placement-sensitivity sweep (collectives.go); EXPERIMENTS.md records
// the reference outputs.
package harness

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/osu"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/workload"
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

// DefaultCommOptions mirrors the paper's setup — 10 runs for osu_bw, 25
// for osu_latency (the paper's count for the latency-overhead figure, which
// Figure 7 shares) — with simulation-friendly iteration counts (see
// EXPERIMENTS.md on iteration scaling).
func DefaultCommOptions(kind BenchKind, mode CommMode) CommOptions {
	o := CommOptions{Kind: kind, Mode: mode, Runs: 10, Seed: 1}
	if kind == BenchBw {
		o.OSU = osu.DefaultBwOptions()
	} else {
		o.Runs = 25
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

	var gang *workload.Gang
	var err error
	switch opts.Mode {
	case ModeHost:
		// The paper's baseline "without involving Kubernetes": host
		// processes on the default service's global VNI.
		gang, err = workload.HostGang(st, 1000, 1000, st.Nodes[:2], 1, fabric.TCDedicated)
	case ModeVNITrue:
		gang, err = podGang(st, true)
	case ModeVNIFalse:
		gang, err = podGang(st, false)
	default:
		return nil, fmt.Errorf("unknown mode %q", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	defer gang.Close()
	var pts []osu.Point
	finished := false
	collect := func(p []osu.Point) { pts, finished = p, true }
	switch opts.Kind {
	case BenchBw:
		osu.Bandwidth(st.Eng, gang.Comm, opts.OSU, collect)
	case BenchLatency:
		osu.Latency(st.Eng, gang.Comm, opts.OSU, collect)
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

// podGang submits a two-pod MPI job (spread across the two nodes by the
// scheduler, as the paper does with topology spread constraints), waits for
// both pods to run, and gangs a rank inside each pod.
func podGang(st *stack.Stack, vni bool) (*workload.Gang, error) {
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
		var err error
		if useVNI, err = vniapi.JobVNI(vniapi.VNILister(st.Cluster.Client), "bench", "osu"); err != nil {
			return nil, fmt.Errorf("job bench/osu: %w", err)
		}
	}
	return workload.PodGang(st, "bench", "osu", useVNI, fabric.TCDedicated)
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
